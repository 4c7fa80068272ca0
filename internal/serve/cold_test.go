package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// TestServePolicyPanicRecovered: a cold compute that panics is contained
// by sweep.Run instead of killing the daemon. The cold path returns the
// panic as an error, sweep/job_panics counts it, nothing is cached, and
// the next query for the same cell computes and answers 200. Posted
// through the handler, a panicking cell answers 500 with the panic
// text: the failure is the daemon's, not the request's. Its panic comes
// from a catalog spec whose DDR machine has no platform, so the query
// resolves and its compute dereferences the missing platform.
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

	broken, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := broken.cat.spec("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	spec := *cs.spec
	spec.Machines = append([]*core.Machine{{Mode: memsim.ModeDDR}}, cs.spec.Machines[1:]...)
	broken.cat.specs["broadwell"] = catalogSpec{spec: &spec, cfgHash: cs.cfgHash}
	w := postQuery(t, broken.Handler(), "/v1/query", req)
	const panicText = "sweep: job panicked: runtime error: invalid memory address or nil pointer dereference"
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), panicText) {
		t.Fatalf("panicking cell through the handler: status %d %s, want 500 with %q", w.Code, w.Body, panicText)
	}
	if got := reg.Counter("sweep/job_panics").Value(); got != 2 {
		t.Fatalf("sweep/job_panics = %d, want 2", got)
	}
	if n := broken.hot.len(); n != 0 {
		t.Fatalf("hot set cached %d panicked cells", n)
	}
}
