package harness

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/store"
)

// newTracer returns a tracer writing into a buffer, and a func that
// closes it and decodes the full event stream it wrote.
func newTracer(t *testing.T) (*obs.Tracer, func() []obs.Event) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	return tr, func() []obs.Event {
		t.Helper()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
}

// tracedRun executes one experiment with a fresh tracer attached,
// returning the report and the tracer's full event stream.
func tracedRun(t *testing.T, id string, st *store.Store) (*Report, []obs.Event) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	opt := tiny
	opt.Store = st
	var events func() []obs.Event
	opt.Trace, events = newTracer(t)
	rep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s traced: %v", id, err)
	}
	return rep, events()
}

// TestTraceByteIdentity is the tentpole contract of the tracing layer:
// attaching a tracer must never change a report's bytes — sparse
// (fig9), dense (fig7), and a degraded sparse run with every third
// matrix failing all render identically with tracing on and off, while
// the tracer records a non-trivial event stream.
func TestTraceByteIdentity(t *testing.T) {
	doomed := map[string]bool{}
	for i, s := range suite(platform.Broadwell(), tiny) {
		if i%3 == 1 {
			doomed[s.Name] = true
		}
	}
	failEveryThird := func(s sparse.Spec) error {
		if doomed[s.Name] {
			return fmt.Errorf("injected failure for %s", s.Name)
		}
		return nil
	}
	for _, tc := range []struct {
		label, id string
		fail      func(sparse.Spec) error
	}{
		{"sparse/fig9", "fig9", nil},
		{"dense/fig7", "fig7", nil},
		{"chaos/fig9", "fig9", failEveryThird},
	} {
		t.Run(tc.label, func(t *testing.T) {
			sparseJobHook = tc.fail
			defer func() { sparseJobHook = nil }()
			clean := runReport(t, tc.id, nil)
			traced, events := tracedRun(t, tc.id, nil)
			requireEqualReports(t, tc.label+": traced vs untraced", traced, clean)
			if len(events) == 0 {
				t.Fatal("tracer recorded nothing")
			}
			p := obs.AnalyzeTrace(events)
			if p.Jobs == 0 {
				t.Fatal("no job chains reconstructed")
			}
			if tc.fail != nil && (p.Failures != len(doomed) || traced.Dropped != len(doomed)) {
				t.Fatalf("%d failed chains and %d dropped cells, want %d each", p.Failures, traced.Dropped, len(doomed))
			}
			for _, c := range p.Chains {
				for i := 1; i < len(c.Events); i++ {
					if c.Events[i].TSNS < c.Events[i-1].TSNS {
						t.Fatalf("chain %s runs backwards at event %d", c.Trace, i)
					}
				}
			}
		})
	}
}

// chainShape flattens a trace's per-job chains into a deterministic
// signature: for each trace ID, the ordered (name, detail, job) steps
// with all timing and worker assignment stripped.
func chainShape(events []obs.Event) map[string][]string {
	out := map[string][]string{}
	for _, c := range obs.AnalyzeTrace(events).Chains {
		var steps []string
		for _, ev := range c.Events {
			steps = append(steps, ev.Name+"|"+ev.Detail+"|"+ev.Job)
		}
		out[c.Trace] = steps
	}
	return out
}

// TestTraceChainDeterminism runs the same parallel sweep twice with
// four workers: the global event interleaving is scheduling-dependent,
// but every per-trace chain — the causal unit opmprof and the Perfetto
// export group by — must be step-identical across runs (run under
// -race in CI, which also exercises the emit lock).
func TestTraceChainDeterminism(t *testing.T) {
	run := func() []obs.Event {
		e, err := Get("fig9")
		if err != nil {
			t.Fatal(err)
		}
		opt := tiny
		opt.Workers = 4
		var events func() []obs.Event
		opt.Trace, events = newTracer(t)
		if _, err := e.Run(context.Background(), opt); err != nil {
			t.Fatal(err)
		}
		return events()
	}
	a, b := chainShape(run()), chainShape(run())
	if len(a) != len(b) {
		t.Fatalf("runs produced %d vs %d trace IDs", len(a), len(b))
	}
	for id, steps := range a {
		got, ok := b[id]
		if !ok {
			t.Fatalf("trace %s missing from second run", id)
		}
		if strings.Join(steps, "\n") != strings.Join(got, "\n") {
			t.Fatalf("trace %s chain diverged:\nrun1: %v\nrun2: %v", id, steps, got)
		}
	}
}

// TestTraceChainShapesUnderChaos checks that the causal chain records
// what actually happened when a damaged journal is half warm: a fig9
// rerun over a store with every other record bit-flipped mixes chains
// that hit the store with chains that recompute. Hit chains carry a
// store/hit and no estimator work; each recomputed chain runs store/miss,
// then estimator and gate events, then store/commit, in that order. The
// recomputed chains are exactly the damaged records, and every chain
// ends in job/done.
func TestTraceChainShapesUnderChaos(t *testing.T) {
	dir := coldJournal(t)
	flipped := flipEveryOtherFrame(t, dir)
	st := mustOpen(t, dir, nil)
	defer st.Close()
	_, events := tracedRun(t, "fig9", st)

	p := obs.AnalyzeTrace(events)
	misses := 0
	for _, c := range p.Chains {
		var names []string
		for _, ev := range c.Events {
			names = append(names, ev.Name)
		}
		seq := strings.Join(names, " ")
		if c.Failed || names[len(names)-1] != obs.EvDone {
			t.Fatalf("chain %s did not end in %s: %s", c.Trace, obs.EvDone, seq)
		}
		if c.CacheHit {
			if !strings.Contains(seq, obs.EvStoreHit) || strings.Contains(seq, obs.EvEstimator) {
				t.Fatalf("hit chain %s: %s", c.Trace, seq)
			}
			continue
		}
		misses++
		miss := strings.Index(seq, obs.EvStoreMiss)
		est := strings.Index(seq, obs.EvEstimator)
		gate := strings.LastIndex(seq, obs.EvGate)
		commit := strings.Index(seq, obs.EvStoreCommit)
		if miss < 0 || est < miss || gate < est || commit < gate {
			t.Fatalf("recomputed chain %s lacks miss→estimator→gate→commit order: %s", c.Trace, seq)
		}
	}
	if misses != flipped || p.Hits != p.Jobs-flipped {
		t.Fatalf("%d recomputed and %d hit chains of %d; want the %d flipped records recomputed",
			misses, p.Hits, p.Jobs, flipped)
	}
}

// TestTraceEstimatorEvents checks the estimator leg of the chain:
// every fig9 job evaluates its matrix on each Broadwell mode through
// the exact estimator, so every chain carries one estimator/serve
// "exact" event per mode.
func TestTraceEstimatorEvents(t *testing.T) {
	e, err := Get("fig9")
	if err != nil {
		t.Fatal(err)
	}
	opt := tiny
	var events func() []obs.Event
	opt.Trace, events = newTracer(t)
	if _, err := e.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	p := obs.AnalyzeTrace(events())
	if len(p.Chains) == 0 {
		t.Fatal("fig9 traced no chains")
	}
	modes := len(platform.Broadwell().Modes)
	for _, c := range p.Chains {
		n := 0
		for _, ev := range c.Events {
			if ev.Name != obs.EvEstimator {
				continue
			}
			if ev.Detail != "exact" {
				t.Fatalf("chain %s served by estimator %q, want exact", c.Trace, ev.Detail)
			}
			n++
		}
		if n != modes {
			t.Fatalf("chain %s carries %d exact estimator events, want one per mode (%d)", c.Trace, n, modes)
		}
	}
}

// TestTraceJoinsStore is the content-derived identity contract: a cold
// store-backed run and the warm rerun that serves every cell from the
// journal emit chains under the same digest-derived trace IDs, with
// the warm occurrences flagged as cache hits at worker -1.
func TestTraceJoinsStore(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	_, coldEvents := tracedRun(t, "fig9", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, nil)
	defer st2.Close()
	_, warmEvents := tracedRun(t, "fig9", st2)

	cold, warm := obs.AnalyzeTrace(coldEvents), obs.AnalyzeTrace(warmEvents)
	if warm.Hits == 0 || warm.Hits != warm.Jobs {
		t.Fatalf("warm run: %d/%d hits, want all", warm.Hits, warm.Jobs)
	}
	coldIDs := map[string]bool{}
	for _, c := range cold.Chains {
		coldIDs[c.Trace] = true
	}
	for _, c := range warm.Chains {
		if !coldIDs[c.Trace] {
			t.Fatalf("warm chain %s (%s) has no cold counterpart — trace IDs are not content-derived", c.Trace, c.Job)
		}
		if !c.CacheHit || c.Worker != -1 {
			t.Fatalf("warm chain %s not an inline store hit: %+v", c.Trace, c)
		}
	}
}
