package serve

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestServeClassLatencyHistograms covers the per-class SLO surface:
// every admission class's serve/latency/<class> histogram is
// pre-registered at New (so the first Prometheus scrape carries the
// full roster), traffic lands in its class's histogram, and a
// client-typo'd class on a hot-set hit mints no metric name.
func TestServeClassLatencyHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Pre-registration: both default classes are on /metrics/prom
	// before any request, each with a zero count.
	w := getPath(t, h, "/metrics/prom")
	if w.Code != http.StatusOK {
		t.Fatalf("prom scrape status %d", w.Code)
	}
	body := w.Body.String()
	for _, class := range []string{"interactive", "batch"} {
		mn := "opm_serve_latency_" + class + "_seconds"
		if !strings.Contains(body, mn+"_count 0") {
			t.Fatalf("first scrape missing pre-registered %s_count 0:\n%s", mn, body)
		}
	}

	// One interactive query (the default class) lands one observation.
	q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 1024, NB: 128}
	decodeQuery(t, postQuery(t, h, "/v1/query", q))
	if n := reg.Histogram("serve/latency/interactive").Count(); n != 1 {
		t.Fatalf("serve/latency/interactive count = %d, want 1", n)
	}
	if n := reg.Histogram("serve/latency/batch").Count(); n != 0 {
		t.Fatalf("serve/latency/batch count = %d, want 0", n)
	}

	// A hot-set hit under an unknown class serves fine (it never
	// reaches admission) but must not mint a histogram from the typo.
	q.Class = "interactiv"
	if r := decodeQuery(t, postQuery(t, h, "/v1/query", q)); r.Source != "hot" {
		t.Fatalf("repeat source %q, want hot", r.Source)
	}
	if _, ok := reg.Snapshot().Histograms["serve/latency/interactiv"]; ok {
		t.Fatal("client-supplied class minted a histogram name")
	}
}

// TestServeAdmissionClassNames checks the validation guarding the
// metric namespace: class names become serve/latency/<class>
// histograms, so New refuses names that are empty or carry
// exposition-hostile characters.
func TestServeAdmissionClassNames(t *testing.T) {
	for _, bad := range []string{"", "Interactive", "a b", "x/y", `q"q`} {
		_, err := New(Config{Classes: map[string]ClassConfig{bad: {Rate: 1}}})
		if err == nil {
			t.Fatalf("class name %q accepted", bad)
		}
	}
	if _, err := New(Config{Classes: map[string]ClassConfig{"gpu-batch_2": {Rate: 1}}}); err != nil {
		t.Fatalf("valid class name rejected: %v", err)
	}
}
