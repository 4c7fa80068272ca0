package serve

import (
	"context"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestServePolicyPanicRecovered: a cold compute that panics is contained
// by sweep.Run instead of killing the daemon. The cold path returns the
// panic as an error, sweep/job_panics counts it, nothing is cached, and
// the next query for the same cell computes and answers 200.
func TestServePolicyPanicRecovered(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 1024, NB: 128, Class: "interactive"}
	c, err := srv.cat.resolve(req, srv.eng)
	if err != nil {
		t.Fatal(err)
	}
	c.compute = func(context.Context, *sweep.Worker) (any, error) {
		panic("generator overran its buffer")
	}
	digest := c.digest()
	_, err = srv.computeCell(context.Background(), c, digest, harness.CellTraceID(digest), c.family+"/"+c.key, req.Class)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("cold path = %v, want the contained panic", err)
	}
	if got := reg.Counter("sweep/job_panics").Value(); got != 1 {
		t.Fatalf("sweep/job_panics = %d, want 1", got)
	}
	if resp := decodeQuery(t, postQuery(t, srv.Handler(), "/v1/query", req)); resp.Source != "computed" {
		t.Fatalf("next query source %q, want computed", resp.Source)
	}
}
