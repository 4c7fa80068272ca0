package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsNoOp is the zero-cost-when-disabled contract: every
// operation on a nil registry and its nil instruments must be safe.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3.5)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := r.Histogram("z")
	h.Observe(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil histogram observed")
	}
	if d := r.StartSpan("a").End(); d != 0 {
		t.Fatal("nil span measured time")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
	if r.SpanReport() != "" {
		t.Fatal("nil registry produced a span report")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountersGaugesAndLookupIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sweep/jobs")
	b := r.Counter("sweep/jobs")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(3)
	b.Inc()
	b.AddUint64(2)
	if a.Value() != 6 {
		t.Fatalf("counter = %d, want 6", a.Value())
	}
	b.AddUint64(math.MaxUint64) // saturates instead of wrapping negative
	if a.Value() < 6 {
		t.Fatalf("counter wrapped negative: %d", a.Value())
	}
	g := r.Gauge("util")
	g.Set(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

// TestHistogramBuckets pins the bucket layout: ≤1µs in bucket 0,
// power-of-two upper bounds after, catch-all at the top.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{24 * time.Hour, numBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.d); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.d, got, tc.want)
		}
		if tc.want < numBuckets-1 && BucketBound(tc.want) < tc.d {
			t.Errorf("bucket %d bound %v below its member %v", tc.want, BucketBound(tc.want), tc.d)
		}
	}
	h := NewRegistry().Histogram("lat")
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(-time.Second) // clamps to 0
	s := h.snapshot()
	if s.Count != 3 || s.MinNS != 0 || s.MaxNS != int64(3*time.Millisecond) {
		t.Fatalf("snapshot %+v", s)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestSpansAggregateAndReport pins the span contract: each End is one
// observation of the histogram named by the span's path, and
// SpanReport renders every histogram as one path-sorted row.
func TestSpansAggregateAndReport(t *testing.T) {
	r := NewRegistry()
	exp := r.StartSpan("exp/fig9")
	for i := 0; i < 3; i++ {
		sw := r.StartSpan("exp/fig9/sweep")
		time.Sleep(time.Millisecond)
		if sw.End() <= 0 {
			t.Fatal("span measured nothing")
		}
	}
	exp.End()
	r.Histogram("sweep/job_latency").Observe(time.Millisecond)
	s := r.Snapshot()
	sw, ok := s.Histograms["exp/fig9/sweep"]
	if !ok || sw.Count != 3 || sw.MinNS < int64(time.Millisecond) || sw.MeanNS <= 0 {
		t.Fatalf("sweep span histogram %+v (ok=%v)", sw, ok)
	}
	if s.Histograms["exp/fig9"].Count != 1 {
		t.Fatalf("experiment span histogram %+v", s.Histograms["exp/fig9"])
	}
	rows := strings.Split(strings.TrimSuffix(r.SpanReport(), "\n"), "\n")
	if len(rows) != 4 {
		t.Fatalf("span report has %d lines, want a header and 3 rows:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	for i, want := range []string{"exp/fig9 ", "exp/fig9/sweep ", "sweep/job_latency "} {
		if !strings.HasPrefix(rows[i+1], "  "+want) {
			t.Fatalf("row %d = %q, want the %q row", i, rows[i+1], want)
		}
	}
	if !strings.Contains(rows[2], "×3") {
		t.Fatalf("sweep row %q lacks its count", rows[2])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("memsim/l1/hits").Add(42)
	r.Gauge("sweep/worker_utilization").Set(0.9)
	r.Histogram("sweep/job_latency").Observe(2 * time.Millisecond)
	m := NewManifest("test")
	m.Workers = 4
	m.Machines = []string{"broadwell/ddr"}
	m.ConfigHash = Hash(1, "x")
	m.Finish()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["memsim/l1/hits"] != 42 {
		t.Fatalf("counters %+v", s.Counters)
	}
	if s.Gauges["sweep/worker_utilization"] != 0.9 {
		t.Fatalf("gauges %+v", s.Gauges)
	}
	if s.Histograms["sweep/job_latency"].Count != 1 {
		t.Fatalf("histograms %+v", s.Histograms)
	}
	if s.Manifest == nil || s.Manifest.GoVersion == "" || s.Manifest.WallMS < 0 ||
		s.Manifest.Tool != "test" || len(s.Manifest.Machines) != 1 {
		t.Fatalf("manifest %+v", s.Manifest)
	}
}

func TestHashIsStableAndDiscriminating(t *testing.T) {
	if Hash(1, "a") != Hash(1, "a") {
		t.Fatal("hash unstable")
	}
	if Hash(1, "a") == Hash(2, "a") || Hash(1) == Hash(1, "") {
		t.Fatal("hash collides on trivially different configs")
	}
}

// TestServeEndpoints boots the debug server on an ephemeral port and
// exercises /metrics, /debug/vars and a pprof index fetch. The
// Prometheus rendering is gone: /metrics/prom answers 404.
func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sweep/jobs").Add(7)
	m := NewManifest("test")
	srv, addr, err := Serve("127.0.0.1:0", r, func() *Manifest { return m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, `"sweep/jobs": 7`) ||
		!strings.Contains(body, `"tool": "test"`) {
		t.Fatalf("/metrics body:\n%s", body)
	}
	// /debug/vars serves Go's runtime vars; the registry's one JSON
	// rendering is /metrics.
	if body := get("/debug/vars"); !strings.Contains(body, `"memstats"`) || strings.Contains(body, `"opm"`) {
		t.Fatalf("/debug/vars body:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("pprof cmdline empty")
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics/prom: status %d, want 404", resp.StatusCode)
	}
}
