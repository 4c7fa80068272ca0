package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/sweep"
)

// hold borrows a worker on another goroutine and keeps it until the
// returned release is called. It returns the borrowed worker's ID once
// the worker is lent out.
func hold(t *testing.T, pool *workerPool) (int, func()) {
	t.Helper()
	got := make(chan int)
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- pool.run(context.Background(), func(w *sweep.Worker) {
			got <- w.ID()
			<-release
		})
	}()
	id := <-got
	return id, func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("held run: %v", err)
		}
	}
}

// runID borrows a worker on the calling goroutine and returns its ID.
func runID(t *testing.T, pool *workerPool) int {
	t.Helper()
	id := -1
	if err := pool.run(context.Background(), func(w *sweep.Worker) { id = w.ID() }); err != nil {
		t.Fatalf("run: %v", err)
	}
	return id
}

// TestWorkerPoolLowestIdleFirst pins the pick order: back-to-back
// callers all reuse worker 0 (so single-client traffic keeps one
// worker's simulators warm), and a freed low worker is handed out
// before a higher idle one.
func TestWorkerPoolLowestIdleFirst(t *testing.T) {
	pool := newWorkerPool(3)
	for i := 0; i < 4; i++ {
		if id := runID(t, pool); id != 0 {
			t.Fatalf("sequential run %d on worker %d, want 0", i, id)
		}
	}
	id0, release0 := hold(t, pool)
	id1, release1 := hold(t, pool)
	if id0 != 0 || id1 != 1 {
		t.Fatalf("held workers %d, %d, want 0, 1", id0, id1)
	}
	release0()
	if id := runID(t, pool); id != 0 {
		t.Fatalf("with worker 1 busy, run went to worker %d, want the lowest idle 0", id)
	}
	release1()
	if n := pool.busy(); n != 0 {
		t.Fatalf("busy = %d after every run returned, want 0", n)
	}
}

// TestWorkerPoolRunsOnPickedShard checks overlapping callers each get
// their own worker — the next idle one — and that the busy count
// tracks the lent workers and returns to 0.
func TestWorkerPoolRunsOnPickedShard(t *testing.T) {
	pool := newWorkerPool(3)
	var releases []func()
	for want := 0; want < 3; want++ {
		id, release := hold(t, pool)
		if id != want {
			t.Fatalf("overlapping caller %d got worker %d, want %d", want, id, want)
		}
		if n := pool.busy(); n != want+1 {
			t.Fatalf("busy = %d with %d callers holding workers", n, want+1)
		}
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	if n := pool.busy(); n != 0 {
		t.Fatalf("busy = %d after every run returned, want 0", n)
	}
}

// TestWorkerPoolWaitHonorsContext proves ctx bounds the wait for a
// worker: with every worker lent out, a caller whose context expires
// gets the context error and its fn never runs.
func TestWorkerPoolWaitHonorsContext(t *testing.T) {
	pool := newWorkerPool(1)
	_, release := hold(t, pool)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := pool.run(ctx, func(*sweep.Worker) { t.Error("fn ran without a free worker") })
	if err != context.DeadlineExceeded {
		t.Fatalf("run with no free worker = %v, want context.DeadlineExceeded", err)
	}
	release()
	if n := pool.busy(); n != 0 {
		t.Fatalf("busy = %d after the holder returned, want 0", n)
	}
	if id := runID(t, pool); id != 0 {
		t.Fatalf("run after release on worker %d, want 0", id)
	}
}

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
