package serve

import (
	"context"
	"sync"

	"repro/internal/sweep"
)

// workerPool lends a fixed set of persistent sweep workers to cold
// computes. Each worker keeps its pooled simulators (one per machine
// configuration) for the process lifetime; a caller runs its cell on
// its own goroutine while it holds a worker, so the pool owns no
// goroutines. The lowest-numbered idle worker goes out first, so light
// traffic keeps reusing one worker's warm simulators instead of
// building every simulator on every worker.
type workerPool struct {
	slots   chan struct{} // one token per lent worker
	mu      sync.Mutex
	workers []*sweep.Worker
	lent    []bool
}

func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = 1
	}
	p := &workerPool{
		slots:   make(chan struct{}, n),
		workers: make([]*sweep.Worker, n),
		lent:    make([]bool, n),
	}
	for i := range p.workers {
		p.workers[i] = sweep.NewWorker(i)
	}
	return p
}

func (p *workerPool) size() int { return len(p.workers) }

// busy returns how many workers are lent out.
func (p *workerPool) busy() int { return len(p.slots) }

// run borrows the lowest-numbered idle worker, calls fn with it on the
// caller's goroutine, and hands the worker back. ctx bounds the wait
// for a free worker: a caller cancelled before it gets one receives
// ctx's error and fn never runs. Otherwise fn has finished when run
// returns, so the caller may read fn's captured results without
// racing; fn itself observes ctx.
func (p *workerPool) run(ctx context.Context, fn func(w *sweep.Worker)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.slots }()
	// Holding a slot guarantees an idle worker: lent flags never
	// outnumber the slots taken.
	p.mu.Lock()
	id := 0
	for p.lent[id] {
		id++
	}
	p.lent[id] = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.lent[id] = false
		p.mu.Unlock()
	}()
	fn(p.workers[id])
	return nil
}
