package serve

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Cold cells run through the sweep engine's job runner, so the
// engine's injector, per-attempt deadline, panic containment and the
// family breaker all apply to daemon requests exactly as they do to
// batch jobs. Each test arms the "job" chaos point on the server's
// engine and queries cold dense cells (analytic, so they compute in
// microseconds).

// chaosServer builds a server under pol with the fault spec armed on
// its engine.
func chaosServer(t *testing.T, pol *resilience.Policy, spec string) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := New(Config{Registry: reg, Policy: pol, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv.eng.Inject = inj
	return srv, reg
}

// denseQuery is a cold GEMM cell; n varies the cell.
func denseQuery(n int) QueryRequest {
	return QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: n, NB: 128}
}

// TestServePolicyJobTimeout: an attempt delayed past JobTimeout is cut
// off by its deadline and retried, and the retry answers.
func TestServePolicyJobTimeout(t *testing.T) {
	srv, reg := chaosServer(t, &resilience.Policy{MaxAttempts: 2, JobTimeout: 20 * time.Millisecond},
		"job:delay@1=200ms")
	if w := postQuery(t, srv.Handler(), "/v1/query", denseQuery(1024)); w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the retry (%s)", w.Code, w.Body)
	}
	if got := reg.Counter("resilience/job_deadline_exceeded").Value(); got != 1 {
		t.Fatalf("resilience/job_deadline_exceeded = %d, want 1", got)
	}
}

// TestServePolicyPanicRecovered: a panicking attempt is contained and
// retried instead of killing the daemon, which keeps answering.
func TestServePolicyPanicRecovered(t *testing.T) {
	srv, reg := chaosServer(t, &resilience.Policy{MaxAttempts: 2}, "job:panic@1")
	h := srv.Handler()
	if w := postQuery(t, h, "/v1/query", denseQuery(1024)); w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the retry (%s)", w.Code, w.Body)
	}
	if got := reg.Counter("sweep/job_panics").Value(); got != 1 {
		t.Fatalf("sweep/job_panics = %d, want 1", got)
	}
	if w := postQuery(t, h, "/v1/query", denseQuery(2048)); w.Code != http.StatusOK {
		t.Fatalf("next query status %d, want 200 (%s)", w.Code, w.Body)
	}
}

// TestServePolicyBreakerTrips: permanent failures count against the
// kernel family's breaker, which short-circuits the next cold cell of
// that family with 503.
func TestServePolicyBreakerTrips(t *testing.T) {
	srv, reg := chaosServer(t, &resilience.Policy{BreakerThreshold: 2}, "job:permanent@1")
	h := srv.Handler()
	for i, want := range []int{http.StatusBadRequest, http.StatusBadRequest, http.StatusServiceUnavailable} {
		if w := postQuery(t, h, "/v1/query", denseQuery(512*(i+1))); w.Code != want {
			t.Fatalf("query %d: status %d, want %d (%s)", i, w.Code, want, w.Body)
		}
	}
	if got := reg.Counter("resilience/breaker_short_circuits").Value(); got != 1 {
		t.Fatalf("resilience/breaker_short_circuits = %d, want 1", got)
	}
}
