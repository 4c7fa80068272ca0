package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestTracerNilIsOff pins the off switch: every tracer method and the
// context helpers must be safe no-ops on a nil tracer, and a context
// with no trace bound must make TraceEvent free of side effects.
func TestTracerNilIsOff(t *testing.T) {
	var tr *Tracer
	tr.Emit("t", EvDone, "j", 0, 0, "")
	if tr.Emitted() != 0 || tr.NextSweep() != 0 {
		t.Fatal("nil tracer counters not zero")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := WithTraceContext(context.Background(), nil, "id", "job", 0)
	if ctx != context.Background() {
		t.Fatal("WithTraceContext with nil tracer must return ctx unchanged")
	}
	TraceEvent(ctx, EvDone, "") // must not panic
}

// readBack flushes tr and decodes everything it has written to buf.
func readBack(t *testing.T, tr *Tracer, buf *bytes.Buffer) []Event {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestTracerSinkOrderAndClose checks the file sink end to end: events
// come back oldest-first with gapless 1-based Seq and non-decreasing
// TSNS, and an Emit after Close is counted but writes nothing (and
// does not panic).
func TestTracerSinkOrderAndClose(t *testing.T) {
	if _, err := CreateTracer(filepath.Join(t.TempDir(), "missing", "t.jsonl")); err == nil {
		t.Fatal("CreateTracer into a missing directory must fail")
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	tr, err := CreateTracer(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tr.Emit("t", EvEstimator, "j", 0, 0, strconv.Itoa(i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Emit("t", EvDone, "j", 0, 0, "after close")
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := tr.Emitted(); got != 11 {
		t.Fatalf("Emitted = %d, want 11", got)
	}
	evs, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 {
		t.Fatalf("file holds %d events, want the 10 emitted before Close", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Detail != strconv.Itoa(i) {
			t.Fatalf("event %d = %+v, want Seq %d (oldest-first)", i, ev, i+1)
		}
		if i > 0 && ev.TSNS < evs[i-1].TSNS {
			t.Fatalf("timestamps ran backwards: %d then %d", evs[i-1].TSNS, ev.TSNS)
		}
	}
}

// TestTracerSinkRoundTrip writes a chain through the JSONL sink and
// reads it back: every field survives.
func TestTracerSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit("abc", EvEnqueue, "mat/a", -1, 0, "")
	tr.Emit("abc", EvDispatch, "mat/a", 2, 0, "")
	tr.Emit("abc", EvStoreCommit, "mat/a", 2, 50*time.Microsecond, "serve")
	tr.Emit("abc", EvDone, "mat/a", 2, time.Millisecond, "")
	got := readBack(t, tr, &buf)
	want := []Event{
		{Seq: 1, Trace: "abc", Name: EvEnqueue, Job: "mat/a", Worker: -1},
		{Seq: 2, Trace: "abc", Name: EvDispatch, Job: "mat/a", Worker: 2},
		{Seq: 3, Trace: "abc", Name: EvStoreCommit, Job: "mat/a", Worker: 2, DurNS: int64(50 * time.Microsecond), Detail: "serve"},
		{Seq: 4, Trace: "abc", Name: EvDone, Job: "mat/a", Worker: 2, DurNS: int64(time.Millisecond)},
	}
	if len(got) != len(want) {
		t.Fatalf("sink replayed %d events, want %d", len(got), len(want))
	}
	for i := range got {
		want[i].TSNS = got[i].TSNS
		if got[i] != want[i] {
			t.Fatalf("event %d diverged:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestReadTraceRejectsMalformed pins the line-numbered decode error.
func TestReadTraceRejectsMalformed(t *testing.T) {
	in := `{"seq":1,"ts_ns":1,"trace":"a","name":"job/enqueue","worker":-1}

not json
`
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed line 3 not reported: %v", err)
	}
}

// FuzzReadTrace holds the trace decoder to two invariants on any
// input: it never panics, and any stream it accepts, re-encoded with
// one json.Marshal per line, decodes to equal events. The committed
// seed corpus covers a valid chain, a blank line, a malformed line and
// a line over the scanner's 4 MB limit.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("re-encoding %+v: %v", ev, err)
			}
			buf.Write(append(line, '\n'))
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(evs) {
			t.Fatalf("re-encoded stream holds %d events, want %d", len(again), len(evs))
		}
		for i := range evs {
			if again[i] != evs[i] {
				t.Fatalf("event %d changed across re-encoding:\n%+v\n%+v", i, evs[i], again[i])
			}
		}
	})
}

// TestTraceIDStable pins the trace-ID derivation: stable across calls,
// 16 hex digits, and length-prefixed so part boundaries matter.
func TestTraceIDStable(t *testing.T) {
	a := TraceID("store", "deadbeef")
	if a != TraceID("store", "deadbeef") {
		t.Fatal("TraceID not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("TraceID length = %d, want 16 hex digits", len(a))
	}
	if a == TraceID("stored", "eadbeef") {
		t.Fatal("TraceID collides across shifted part boundaries")
	}
	if TraceID("sweep", "1", "job", "2") == TraceID("sweep", "1", "job", "3") {
		t.Fatal("distinct jobs share a trace ID")
	}
}

// TestTraceIDGolden pins TraceID's bytes for a few part lists, an
// empty list, empty parts and a part past the 256-byte stack buffer
// included, and holds a typical ID to one allocation.
func TestTraceIDGolden(t *testing.T) {
	for _, c := range []struct {
		parts []string
		want  string
	}{
		{nil, "e3b0c44298fc1c14"},
		{[]string{""}, "af5570f5a1810b7a"},
		{[]string{"store", "3f9a1c0e5b7d2468ace013579bdf2468ace013579bdf2468ace013579bdf2468"}, "34dedcfeb7339f04"},
		{[]string{"sweep", "7", "job", "42"}, "5370607aff294e58"},
		{[]string{"a", "bc"}, "3fafa1cf2f19a7c1"},
		{[]string{"ab", "c"}, "601d5476e2ccfe2c"},
		{[]string{"", "x", ""}, "40bbb6e2db4665d0"},
		{[]string{strings.Repeat("0123456789", 30), "tail"}, "770bc9028f426842"},
	} {
		if got := TraceID(c.parts...); got != c.want {
			t.Errorf("TraceID(%q) = %s, want %s", c.parts, got, c.want)
		}
	}
	digest := strings.Repeat("ab", 32)
	if n := testing.AllocsPerRun(100, func() { _ = TraceID("store", digest) }); n != 1 {
		t.Errorf("TraceID allocates %v times, want 1", n)
	}
}

// TestTraceContextPlumbing checks the ambient-context path end to end:
// an event emitted through TraceEventDur reaches the sink carrying the
// bound identity.
func TestTraceContextPlumbing(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTraceContext(context.Background(), tr, "id1", "matrix/x", 3)
	TraceEvent(ctx, EvEstimator, "exact")
	TraceEventDur(ctx, EvStoreCommit, 2*time.Millisecond, "")
	evs := readBack(t, tr, &buf)
	if len(evs) != 2 {
		t.Fatalf("emitted %d events, want 2", len(evs))
	}
	if evs[0].Trace != "id1" || evs[0].Job != "matrix/x" || evs[0].Worker != 3 ||
		evs[0].Name != EvEstimator || evs[0].Detail != "exact" {
		t.Fatalf("context identity lost: %+v", evs[0])
	}
	if evs[1].DurNS != int64(2*time.Millisecond) {
		t.Fatalf("duration lost: %+v", evs[1])
	}
}

// TestHistogramQuantiles checks the pow2-bucket quantile estimates
// against a known distribution: estimates must land within their
// sample's bucket and clamp to the observed min/max.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test/lat")
	// 100 samples at 1ms, 10 at 100ms: p50 ≈ 1ms bucket, p99 ≈ 100ms.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := r.Snapshot().Histograms["test/lat"]
	if s.P50NS <= 0 || s.P50NS > int64(2*time.Millisecond) {
		t.Fatalf("p50 = %v, want within the 1ms bucket", time.Duration(s.P50NS))
	}
	if s.P99NS < int64(50*time.Millisecond) || s.P99NS > s.MaxNS {
		t.Fatalf("p99 = %v, want within the 100ms bucket and <= max", time.Duration(s.P99NS))
	}
	if s.P50NS > s.P95NS || s.P95NS > s.P99NS {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d", s.P50NS, s.P95NS, s.P99NS)
	}
	if got := s.Quantile(0); got != s.MinNS {
		t.Fatalf("Quantile(0) = %d, want MinNS %d", got, s.MinNS)
	}
	if got := s.Quantile(1); got != s.MaxNS {
		t.Fatalf("Quantile(1) = %d, want MaxNS %d", got, s.MaxNS)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}
}

// promSample is the exposition grammar of one sample line: a metric
// name, an optional {label="escaped value"} set, and a value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"\})? (\S+)$`)

// TestWriteProm checks the exposition rendering: nil-safe, counters
// get _total, histograms (span phases included) render as summaries
// with the three quantile series, and every line parses under the
// exposition grammar even when a name carries a '-', a quote or a
// newline — an -admit class, an experiment ID, a hostile path.
func TestWriteProm(t *testing.T) {
	var nilReg *Registry
	var buf bytes.Buffer
	if err := nilReg.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", buf.String(), err)
	}

	r := NewRegistry()
	r.Counter("sweep/jobs").Add(7)
	r.Gauge("sweep/workers").Set(4)
	r.Histogram("sweep/job_latency").Observe(time.Millisecond)
	r.Histogram("serve/latency/my-class").Observe(time.Millisecond)
	r.StartSpan("exp/ext-skylake").End()
	r.StartSpan("exp/evil\"path\n2").End()
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE opm_sweep_jobs_total counter\nopm_sweep_jobs_total 7\n",
		"# TYPE opm_sweep_workers gauge\nopm_sweep_workers 4\n",
		"# HELP opm_sweep_job_latency_seconds ",
		"# TYPE opm_sweep_job_latency_seconds summary\n",
		`opm_sweep_job_latency_seconds{quantile="0.5"}`,
		`opm_sweep_job_latency_seconds{quantile="0.95"}`,
		`opm_sweep_job_latency_seconds{quantile="0.99"}`,
		"opm_sweep_job_latency_seconds_count 1\n",
		"opm_serve_latency_my_class_seconds_count 1\n",
		"opm_exp_ext_skylake_seconds_count 1\n",
		"opm_exp_evil_path_2_seconds_count 1\n",
		"# HELP opm_exp_evil_path_2_seconds latency summary of registry histogram exp/evil\"path\\n2 ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			f := strings.SplitN(rest, " ", 3)
			if len(f) < 3 || (f[0] != "HELP" && f[0] != "TYPE") || !promSample.MatchString(f[1]+" 0") {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("sample line %q breaks the exposition grammar", line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("line %q value %q not numeric: %v", line, m[3], err)
		}
	}
	if promEscape("a\"b\\c\nd") != `a\"b\\c\nd` {
		t.Fatalf("promEscape wrong: %q", promEscape("a\"b\\c\nd"))
	}
}

// TestAnalyzeTrace builds a synthetic two-job trace — one clean job,
// one with a store commit and the attempt, fault and retry-backoff
// events that traces carried before the retry layer was removed — and
// checks the reconstructed chains, phase attribution, critical path
// and top-k ordering. The old events stay in their chain and count as
// compute.
func TestAnalyzeTrace(t *testing.T) {
	evs := []Event{
		{Seq: 1, TSNS: 0, Trace: "a", Name: EvEnqueue, Job: "ja", Worker: -1},
		{Seq: 2, TSNS: 10, Trace: "b", Name: EvEnqueue, Job: "jb", Worker: -1},
		{Seq: 3, TSNS: 100, Trace: "a", Name: EvDispatch, Job: "ja", Worker: 0},
		{Seq: 4, TSNS: 110, Trace: "b", Name: EvDispatch, Job: "jb", Worker: 1},
		{Seq: 5, TSNS: 120, Trace: "a", Name: EvGate, Job: "ja", Worker: 0, Detail: "ok"},
		{Seq: 6, TSNS: 130, Trace: "b", Name: "job/attempt", Job: "jb", Worker: 1, Detail: "1"},
		{Seq: 7, TSNS: 140, Trace: "b", Name: "fault/fire", Job: "jb", Worker: 1, Detail: "job:transient"},
		{Seq: 8, TSNS: 150, Trace: "b", Name: "job/retry_backoff", Job: "jb", Worker: 1, DurNS: 200, Detail: "boom"},
		{Seq: 9, TSNS: 360, Trace: "b", Name: "job/attempt", Job: "jb", Worker: 1, Detail: "2"},
		{Seq: 10, TSNS: 400, Trace: "a", Name: EvEstimator, Job: "ja", Worker: 0, Detail: "exact"},
		{Seq: 11, TSNS: 420, Trace: "b", Name: EvEstimator, Job: "jb", Worker: 1, Detail: "exact"},
		{Seq: 12, TSNS: 500, Trace: "a", Name: EvDone, Job: "ja", Worker: 0, DurNS: 400},
		{Seq: 13, TSNS: 600, Trace: "b", Name: EvStoreCommit, Job: "jb", Worker: 1, DurNS: 50},
		{Seq: 14, TSNS: 700, Trace: "b", Name: EvDone, Job: "jb", Worker: 1, DurNS: 590},
	}
	p := AnalyzeTrace(evs)
	if p.Jobs != 2 || p.Failures != 0 || p.Hits != 0 {
		t.Fatalf("jobs=%d failures=%d hits=%d, want 2/0/0", p.Jobs, p.Failures, p.Hits)
	}
	if p.MakespanNS != 700 {
		t.Fatalf("makespan = %d, want 700", p.MakespanNS)
	}
	a, b := p.Chains[0], p.Chains[1]
	if a.Trace != "a" || b.Trace != "b" {
		t.Fatalf("chains out of first-event order: %s, %s", a.Trace, b.Trace)
	}
	if a.QueueNS != 100 || b.QueueNS != 100 {
		t.Fatalf("queue attribution: a=%d b=%d, want 100/100", a.QueueNS, b.QueueNS)
	}
	if a.ComputeNS != 400 {
		t.Fatalf("clean job compute = %d, want its 400ns busy time", a.ComputeNS)
	}
	if len(b.Events) != 9 {
		t.Fatalf("old-event chain kept %d events, want 9", len(b.Events))
	}
	if b.StoreNS != 50 || b.ComputeNS != 590-50 {
		t.Fatalf("old-event chain compute = %d store = %d, want 540/50", b.ComputeNS, b.StoreNS)
	}
	if crit := p.CriticalPath(); crit.Trace != "b" {
		t.Fatalf("critical path = %s, want b (last to finish)", crit.Trace)
	}
	if top := p.TopSlowest(1); len(top) != 1 || top[0].Trace != "b" {
		t.Fatalf("TopSlowest(1) = %v", top)
	}
	phases := p.PhaseBreakdown()
	if len(phases) != 3 || phases[0].Label != "queue" || phases[0].NS != 200 ||
		phases[1].Label != "compute" || phases[1].NS != 400+540 ||
		phases[2].Label != "store" || phases[2].NS != 50 {
		t.Fatalf("phase breakdown: %+v", phases)
	}
}

// TestAnalyzeTraceReoccurrence checks the warm/cold join: the same
// trace ID enqueued twice (recompute then cache hit) yields two
// occurrences, the second flagged as a hit at worker -1.
func TestAnalyzeTraceReoccurrence(t *testing.T) {
	evs := []Event{
		{Seq: 1, TSNS: 0, Trace: "x", Name: EvEnqueue, Job: "j", Worker: -1},
		{Seq: 2, TSNS: 10, Trace: "x", Name: EvDispatch, Job: "j", Worker: 0},
		{Seq: 3, TSNS: 50, Trace: "x", Name: EvDone, Job: "j", Worker: 0, DurNS: 40},
		{Seq: 4, TSNS: 100, Trace: "x", Name: EvEnqueue, Job: "j", Worker: -1},
		{Seq: 5, TSNS: 110, Trace: "x", Name: EvStoreHit, Job: "j", Worker: -1, DurNS: 5},
		{Seq: 6, TSNS: 115, Trace: "x", Name: EvDone, Job: "j", Worker: -1, Detail: "cache_hit"},
	}
	p := AnalyzeTrace(evs)
	if p.Jobs != 2 || p.Hits != 1 {
		t.Fatalf("jobs=%d hits=%d, want 2 occurrences with 1 hit", p.Jobs, p.Hits)
	}
	if !p.Chains[1].CacheHit || p.Chains[1].Worker != -1 {
		t.Fatalf("second occurrence not a worker -1 hit: %+v", p.Chains[1])
	}
	if p.Chains[0].CacheHit {
		t.Fatal("cold occurrence marked as hit")
	}
}

// TestWriteChromeTrace checks the Perfetto export shape: a valid JSON
// object with one X slice per chain, thread-name metadata, and instant
// events for intermediate chain steps.
func TestWriteChromeTrace(t *testing.T) {
	evs := []Event{
		{Seq: 1, TSNS: 0, Trace: "a", Name: EvEnqueue, Job: "ja", Worker: -1},
		{Seq: 2, TSNS: 1000, Trace: "a", Name: EvDispatch, Job: "ja", Worker: 0},
		{Seq: 3, TSNS: 2000, Trace: "a", Name: EvEstimator, Job: "ja", Worker: 0, Detail: "exact"},
		{Seq: 4, TSNS: 5000, Trace: "a", Name: EvDone, Job: "ja", Worker: 0, DurNS: 4000},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var slices, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
			if ev["dur"] == nil {
				t.Fatalf("X slice without dur: %v", ev)
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if slices != 1 || instants != 1 || meta == 0 {
		t.Fatalf("slices=%d instants=%d meta=%d, want 1 slice, 1 instant (estimator), metadata", slices, instants, meta)
	}
}
