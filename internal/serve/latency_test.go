package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestServeClassLatencyHistograms covers the per-class SLO surface:
// every admission class's serve/latency/<class> histogram is
// pre-registered at New (so the first /metrics scrape carries the full
// roster), traffic lands in its class's histogram, and a client-typo'd
// class answers 400 and mints no metric name, whether its cell is hot
// or journaled.
func TestServeClassLatencyHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	classes := DefaultClasses()
	classes["batch"] = ClassConfig{Rate: 50, Burst: 16, Queue: 256}
	srv, err := New(Config{Store: st, Registry: reg, Classes: classes, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Pre-registration: both classes are on /metrics before any
	// request, each with a zero count.
	w := getPath(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"interactive", "batch"} {
		if hs, ok := snap.Histograms["serve/latency/"+class]; !ok || hs.Count != 0 {
			t.Fatalf("first scrape: serve/latency/%s = %+v (listed %v), want pre-registered with count 0", class, hs, ok)
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

	// An unknown class answers 400 for a hot cell as for a cold one,
	// and mints no histogram from the typo.
	typo := q
	typo.Class = "interactiv"
	if w := postQuery(t, h, "/v1/query", typo); w.Code != http.StatusBadRequest {
		t.Fatalf("hot cell under an unknown class: status %d, want 400 (%s)", w.Code, w.Body)
	}
	if _, ok := reg.Snapshot().Histograms["serve/latency/interactiv"]; ok {
		t.Fatal("client-supplied class minted a histogram name")
	}

	// So does a journaled cell, on a fresh daemon over the same store;
	// the same query under its known class is a store hit.
	reg2 := obs.NewRegistry()
	srv2, err := New(Config{Store: st, Registry: reg2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2 := srv2.Handler()
	if w := postQuery(t, h2, "/v1/query", typo); w.Code != http.StatusBadRequest {
		t.Fatalf("journaled cell under an unknown class: status %d, want 400 (%s)", w.Code, w.Body)
	}
	if _, ok := reg2.Snapshot().Histograms["serve/latency/interactiv"]; ok {
		t.Fatal("client-supplied class minted a histogram name")
	}
	if r := decodeQuery(t, postQuery(t, h2, "/v1/query", q)); r.Source != "store" {
		t.Fatalf("known class on the fresh daemon: source %q, want store", r.Source)
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
