package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/resilience"
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
func tracedRun(t *testing.T, id, spec string, pol *resilience.Policy, st *store.Store) (*Report, []obs.Event) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	opt := tiny
	opt.Resilience = pol
	opt.Store = st
	var events func() []obs.Event
	opt.Trace, events = newTracer(t)
	if spec != "" {
		reg := obs.NewRegistry()
		opt.Obs = reg
		inj, err := faultinject.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		inj.Bind(reg)
		opt.Inject = inj
	}
	rep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s traced under faults %q: %v", id, spec, err)
	}
	return rep, events()
}

// TestTraceByteIdentity is the tentpole contract of the tracing layer:
// attaching a tracer must never change a report's bytes — sparse
// (fig9), dense (fig7), and a chaos-injected sparse run all render
// identically with tracing on and off, while the tracer records a
// non-trivial event stream.
func TestTraceByteIdentity(t *testing.T) {
	// One untraced fig9 baseline serves both the clean and the chaos
	// comparison: the chaos scenario heals, so its traced report must
	// equal the clean bytes too (the chaos suite already pins
	// faulted==clean without tracing).
	cleanFig9, _ := chaosRun(t, "fig9", "", nil, nil)
	cleanFig7, _ := chaosRun(t, "fig7", "", nil, nil)
	for _, tc := range []struct {
		label, id, spec string
		pol             *resilience.Policy
		clean           *Report
	}{
		{"sparse/fig9", "fig9", "", nil, cleanFig9},
		{"dense/fig7", "fig7", "", nil, cleanFig7},
		{"chaos/fig9", "fig9", "seed=7,job:transient@0.4,result:corrupt@0.3", chaosPolicy(), cleanFig9},
	} {
		t.Run(tc.label, func(t *testing.T) {
			traced, events := tracedRun(t, tc.id, tc.spec, tc.pol, nil)
			reportEqual(t, tc.label+": traced vs untraced", traced, tc.clean)
			if len(events) == 0 {
				t.Fatal("tracer recorded nothing")
			}
			p := obs.AnalyzeTrace(events)
			if p.Jobs == 0 {
				t.Fatal("no job chains reconstructed")
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
// what actually happened: with transient faults and retries on, some
// chain must show fault/fire followed by a retry backoff and a second
// attempt, and every chain still ends in job/done (the scenario
// heals).
func TestTraceChainShapesUnderChaos(t *testing.T) {
	_, events := tracedRun(t, "fig9", "seed=7,job:transient@0.4", chaosPolicy(), nil)
	p := obs.AnalyzeTrace(events)
	healed := false
	for _, c := range p.Chains {
		if c.Failed {
			t.Fatalf("chain %s failed in a healing scenario: %s", c.Trace, c.Detail)
		}
		if c.Faults == 0 {
			continue
		}
		if c.Retries == 0 || c.Attempts < 2 {
			t.Fatalf("faulted chain %s: %d attempts, %d retries — fault did not retry", c.Trace, c.Attempts, c.Retries)
		}
		var names []string
		for _, ev := range c.Events {
			names = append(names, ev.Name)
		}
		seq := strings.Join(names, " ")
		if !strings.Contains(seq, obs.EvFault+" "+obs.EvRetry+" "+obs.EvAttempt) {
			t.Fatalf("faulted chain %s lacks fault→backoff→reattempt order: %s", c.Trace, seq)
		}
		healed = true
	}
	if !healed {
		t.Fatal("no chain recorded a healed fault — the scenario tested nothing")
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
	_, coldEvents := tracedRun(t, "fig9", "", nil, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, nil)
	defer st2.Close()
	_, warmEvents := tracedRun(t, "fig9", "", nil, st2)

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
