package serve

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Regression tests for the background-work context plumbing the
// ctxflow check surfaced: async sweep jobs used to run under
// context.Background(), so a Drain that gave up left them computing
// headless forever, and workerPool.run could block waiting for a
// worker with no way to abandon the wait.

// TestWorkerPoolRunCancelledBeforeEnqueue proves a cancelled caller
// never dispatches: fn must not run and no worker stays lent out.
func TestWorkerPoolRunCancelledBeforeEnqueue(t *testing.T) {
	pool := newWorkerPool(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := pool.run(ctx, func(w *sweep.Worker) {
		t.Error("fn ran under a cancelled context")
	})
	if err == nil {
		t.Fatal("run with cancelled context returned nil error")
	}
	if n := pool.busy(); n != 0 {
		t.Fatalf("%d workers lent out after a cancelled run, want 0", n)
	}
}

// TestDrainInterruptedCancelsBase proves the leak fix: when Drain's
// ctx expires with work still in flight, the server cancels its base
// context so background sweeps stop at their next context check
// instead of running forever.
func TestDrainInterruptedCancelsBase(t *testing.T) {
	srv, err := New(Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.begin() {
		t.Fatal("begin refused before drain")
	}
	defer srv.done()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("interrupted drain returned nil error")
	}
	select {
	case <-srv.base.Done():
	default:
		t.Fatal("interrupted drain left the base context alive — background work would leak")
	}
	// Work holding its drain slot now observes cancellation wherever it
	// threads s.base — the pool refuses before dispatch.
	if err := srv.pool.run(srv.base, func(w *sweep.Worker) {
		t.Error("dispatched after base cancellation")
	}); err == nil {
		t.Fatal("pool.run under cancelled base returned nil error")
	}
}

// TestDrainCleanShutsPoolAndBase proves the orderly path: an
// uncontested drain returns within its ctx and also releases the base
// context (nothing should outlive a drained server).
func TestDrainCleanShutsPoolAndBase(t *testing.T) {
	srv, err := New(Config{Registry: obs.NewRegistry(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	select {
	case <-srv.base.Done():
	default:
		t.Fatal("drained server left its base context alive")
	}
}

// TestConfigBaseContextPropagates proves the owner's injected root
// reaches background work: cancelling it cancels the derived base.
func TestConfigBaseContextPropagates(t *testing.T) {
	root, cancel := context.WithCancel(context.Background())
	srv, err := New(Config{Registry: obs.NewRegistry(), Workers: 1, BaseContext: root})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.base.Done():
		t.Fatal("base cancelled before its root")
	default:
	}
	cancel()
	<-srv.base.Done()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain after root cancellation: %v", err)
	}
}
