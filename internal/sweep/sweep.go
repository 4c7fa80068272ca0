// Package sweep is the concurrent sweep-execution engine behind the
// paper's evaluation: thousands of independent (machine, workload)
// cells — 968 sparse matrices × memory modes, ~1900-cell dense heat
// maps — dispatched onto a bounded worker pool instead of nested
// sequential loops. The engine preserves deterministic submission-order
// output regardless of completion order, collects per-job errors so one
// bad matrix cannot kill a 968-matrix sweep, honours context
// cancellation and timeouts, reports progress, and gives each worker a
// keyed resource pool so hot sweeps reuse one hierarchy simulator per
// worker instead of allocating one per cell.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Engine configures one sweep run. The zero value is ready to use:
// GOMAXPROCS workers, no progress reporting, no telemetry.
type Engine struct {
	// Workers bounds the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	// Workers = 1 reproduces the sequential path exactly (and is what
	// the equivalence tests compare against).
	Workers int
	// Progress, when non-nil, is invoked (serialized) after every
	// completed job with the sweep's advancement.
	Progress func(Progress)
	// Obs, when non-nil, receives sweep telemetry: per-job latency and
	// queue-wait histograms, completed/failed/panicked job counters,
	// and worker-utilization plus ETA gauges (see Map for the metric
	// names). A nil registry costs one branch per job.
	Obs *obs.Registry
	// Trace, when non-nil, receives the causal per-job event chain:
	// enqueue/done on every job and dispatch on every job a worker
	// runs, plus estimator/gate/store events from the layers below (via
	// the job context). Nil — the default — costs one branch per job.
	// Like Obs, the tracer observes the sweep without touching its
	// results: traced and untraced runs are byte-identical.
	Trace *obs.Tracer
}

// Progress is one advancement report of a running sweep.
type Progress struct {
	Done, Total int
	Elapsed     time.Duration
	// ETA estimates the remaining wall time from the jobs that ran,
	// smoothed by an exponential moving average of the per-job rate so
	// one slow cell does not whip the estimate around (cache hits cost
	// next to nothing and only scale it; see MapCached). It is zero
	// (meaning "unknown") until at least two jobs have run — a
	// 968-matrix sweep extrapolated from its first computed cell is
	// garbage — and zero again once the sweep is done. It is never
	// negative.
	ETA time.Duration
}

// ETA smoothing parameters: estimates start after minETAJobs
// completions and blend each new overall rate sample into the running
// estimate with weight etaAlpha.
const (
	minETAJobs = 2
	etaAlpha   = 0.25
)

// workerCount resolves the pool size for a job count.
func (e *Engine) workerCount(jobs int) int {
	n := e.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// JobError ties one failed job to its submission index.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Errors collects the failed jobs of one sweep in submission order.
// It satisfies error, and unwraps to the individual causes so
// errors.Is(err, context.Canceled) works on a cancelled sweep.
type Errors []*JobError

func (es Errors) Error() string {
	if len(es) == 0 {
		return "sweep: no errors"
	}
	if len(es) == 1 {
		return "sweep: " + es[0].Error()
	}
	return fmt.Sprintf("sweep: %d jobs failed (first: %v)", len(es), es[0])
}

// Unwrap supports the multi-error traversal of errors.Is/As.
func (es Errors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// Canceled reports whether any failure was a context cancellation or
// deadline — the signal that remaining jobs were skipped, not broken.
func (es Errors) Canceled() bool {
	for _, e := range es {
		if errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded) {
			return true
		}
	}
	return false
}

// Worker is the per-goroutine state handed to every job: an identity
// and a keyed pool of reusable resources. A sweep over N machines keys
// one hierarchy simulator per machine configuration, so each worker
// allocates each simulator once and resets it between cells.
type Worker struct {
	id   int
	pool map[any]any
}

// ID returns the worker's index in [0, Workers).
func (w *Worker) ID() int { return w.id }

// NewWorker returns a standalone worker with its own empty resource
// pool. Map builds its workers internally; this constructor exists for
// long-lived callers — the serve daemon's persistent worker pool —
// that run jobs on workers outside Map (see Run) and want the same
// pooled simulator reuse across requests. id is the worker's identity
// in traces.
func NewWorker(id int) *Worker { return &Worker{id: id, pool: map[any]any{}} }

// Get returns the pooled resource under key, building and caching it on
// first use. Keys must be comparable; the pool is worker-local, so no
// locking is involved. A nil worker builds without pooling, so code
// written against workers also runs standalone (benchmarks, tests).
func (w *Worker) Get(key any, build func() (any, error)) (any, error) {
	if w == nil {
		return build()
	}
	if v, ok := w.pool[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	w.pool[key] = v
	return v, nil
}

// Drop evicts a pooled resource, forcing the next Get to rebuild it —
// used after a failure that may have left the resource inconsistent.
// No-op on a nil worker (which pools nothing).
func (w *Worker) Drop(key any) {
	if w == nil {
		return
	}
	delete(w.pool, key)
}

// Map runs fn over every job on the engine's worker pool and returns
// the results in submission order. Each job goes through Run, once. A
// failed (or panicking) job contributes its zero-value result and a
// JobError; the sweep continues. When ctx is cancelled or times out, workers stop
// promptly and every unstarted job records the context error. The
// returned error is nil when every job succeeded, otherwise the
// accumulated Errors (sorted by job index).
//
// With e.Obs set, Map records:
//
//	sweep/jobs                jobs executed, successful or not (counter)
//	sweep/job_errors          failed or skipped jobs (counter)
//	sweep/job_panics          jobs that panicked (counter, via Run)
//	sweep/job_latency         per-job run time (histogram)
//	sweep/queue_wait          submission-to-start delay (histogram)
//	sweep/worker_utilization  busy time / (workers × wall) (gauge)
//	sweep/eta_seconds         smoothed remaining-time estimate (gauge)
func Map[J, R any](ctx context.Context, e *Engine, jobs []J, fn func(ctx context.Context, w *Worker, job J) (R, error)) ([]R, error) {
	return MapCached(ctx, e, jobs, nil, fn)
}

// MapCached is Map with memoization. The worker that draws a job looks
// it up in the cache before anything else: a hit is the job's result,
// with no call of fn or Commit, and counts on none of the per-job
// instruments (sweep/jobs, sweep/job_latency, sweep/queue_wait, the
// busy time behind sweep/worker_utilization); a miss runs fn through
// Run and is committed to the cache the moment it succeeds. So the
// lookups of later jobs overlap the computes and commits of earlier
// ones. Results come back in submission order exactly as Map returns
// them, and JobError indices refer to jobs. A nil cache makes MapCached
// identical to Map.
//
// The cancellation check comes before the lookup: once ctx is done,
// every unstarted job records the context error, hits included.
// Progress counts every job, hit or miss, when its worker finishes it,
// against Total = len(jobs), so a resumed 968-job sweep reports
// 1/968 ... 968/968. The ETA extrapolates from the jobs that ran fn,
// scaled by the recent share of misses, so the instant hits of a
// resumed sweep's committed jobs do not shrink it.
//
// With e.Trace set, every job's chain opens with an enqueue, emitted in
// submission order before the pool starts, under the cache's
// content-derived ID when it is a TraceKeyer and a per-tracer
// sweep-sequence ID otherwise. A hit emits store/hit and closes with a
// cache_hit done event, both at worker -1, as no worker computed it; a
// miss emits store/miss at worker -1, then flows through the worker as
// every Map job does, with a store/commit as it checkpoints.
//
//opmlint:allow determinism — the wall clock feeds only telemetry (latency/wait histograms, utilization, ETA, trace durations) and progress callbacks; results[i] depends solely on jobs[i] and the cache contents, which the parallel==sequential and warm==cold equivalence tests pin byte-for-byte
func MapCached[J, R any](ctx context.Context, e *Engine, jobs []J, cache Cache[J, R], fn func(ctx context.Context, w *Worker, job J) (R, error)) ([]R, error) {
	if e == nil {
		e = &Engine{}
	}
	results := make([]R, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	var (
		next   atomic.Int64
		done   atomic.Int64
		ran    atomic.Int64 // finished jobs that ran fn: done less the hits
		busyNS atomic.Int64
		mu     sync.Mutex
		errs   Errors
		start  = time.Now()
		wg     sync.WaitGroup
	)
	// Instruments resolve once per sweep, not once per job; on a nil
	// registry they are nil and every use below no-ops.
	obsOn := e.Obs != nil
	var (
		mJobs = e.Obs.Counter("sweep/jobs")
		mErrs = e.Obs.Counter("sweep/job_errors")
		mLat  = e.Obs.Histogram("sweep/job_latency")
		mWait = e.Obs.Histogram("sweep/queue_wait")
		mUtil = e.Obs.Gauge("sweep/worker_utilization")
		mETA  = e.Obs.Gauge("sweep/eta_seconds")
	)
	total := len(jobs)
	// Trace identity resolves once per sweep, and every enqueue is
	// emitted in submission order before the pool starts: IDs come from
	// the cache's content digests when it offers them, else from a
	// per-tracer sweep sequence number and the submission index.
	tr := e.Trace
	var traceIDs, traceKeys []string
	if tr != nil {
		traceIDs = make([]string, total)
		traceKeys = make([]string, total)
		tk, keyed := cache.(TraceKeyer[J])
		var sweepN string
		if !keyed {
			sweepN = strconv.FormatUint(tr.NextSweep(), 10)
		}
		for i, job := range jobs {
			if keyed {
				traceIDs[i], traceKeys[i] = tk.TraceInfo(job)
			} else {
				traceKeys[i] = strconv.Itoa(i)
				traceIDs[i] = obs.TraceID("sweep", sweepN, "job", traceKeys[i])
			}
			tr.Emit(traceIDs[i], obs.EvEnqueue, traceKeys[i], -1, 0, "")
		}
	}
	// lookup, set only with a cache, resolves job i on the worker that
	// drew it and reports whether it hit; a hit's result lands in
	// results[i]. The cache's Commit joins fn, inside Run, so a
	// checkpoint is part of the job it saves.
	var lookup func(i int) bool
	if cache != nil {
		lookup = func(i int) bool {
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			r, hit := cache.Lookup(jobs[i])
			if hit {
				results[i] = r
			}
			if tr != nil {
				d := time.Since(t0)
				if hit {
					tr.Emit(traceIDs[i], obs.EvStoreHit, traceKeys[i], -1, d, "")
					tr.Emit(traceIDs[i], obs.EvDone, traceKeys[i], -1, d, "cache_hit")
				} else {
					tr.Emit(traceIDs[i], obs.EvStoreMiss, traceKeys[i], -1, d, "")
				}
			}
			return hit
		}
		compute := fn
		fn = func(ctx context.Context, w *Worker, job J) (R, error) {
			r, err := compute(ctx, w, job)
			if err != nil {
				return r, err
			}
			if tr == nil {
				cache.Commit(job, r)
				return r, nil
			}
			c0 := time.Now()
			cache.Commit(job, r)
			obs.TraceEventDur(ctx, obs.EvStoreCommit, time.Since(c0), "")
			return r, nil
		}
	}
	// The ETA extrapolates from the jobs that ran fn, as a hit costs
	// next to nothing: etaRate is the EWMA-smoothed ns per ran job, and
	// etaShare the EWMA-smoothed share of ran jobs among the last
	// finished ones, which scales the jobs left. A resumed sweep's
	// committed jobs come first and hit, so its share climbs back to 1
	// within a few misses and its ETA covers the misses still to run.
	// Both are guarded by mu (report is serialized).
	var etaRate float64
	etaShare := 1.0
	report := func(miss bool) {
		if e.Progress == nil && !obsOn {
			return
		}
		// Read the counts under the lock: the last report to take it
		// then sees every completion, so the final Progress is Total.
		mu.Lock()
		d, r := int(done.Load()), ran.Load()
		elapsed := time.Since(start)
		x := 0.0
		if miss {
			x = 1
		}
		etaShare += etaAlpha * (x - etaShare)
		var eta time.Duration
		if r >= minETAJobs && d < total {
			rate := float64(elapsed) / float64(r)
			if etaRate == 0 {
				etaRate = rate
			} else {
				etaRate += etaAlpha * (rate - etaRate)
			}
			if eta = time.Duration(etaRate * etaShare * float64(total-d)); eta < 0 {
				eta = 0
			}
		}
		mETA.Set(eta.Seconds())
		if e.Progress != nil {
			e.Progress(Progress{Done: d, Total: total, Elapsed: elapsed, ETA: eta})
		}
		mu.Unlock()
	}
	fail := func(i int, err error) {
		mErrs.Inc()
		mu.Lock()
		errs = append(errs, &JobError{Index: i, Err: err})
		mu.Unlock()
	}
	workers := e.workerCount(total)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := &Worker{id: wi, pool: map[any]any{}}
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if err := ctx.Err(); err != nil {
					// Cancelled: drain the remaining indices cheaply so
					// the sweep returns promptly with partial results.
					if tr != nil {
						tr.Emit(traceIDs[i], obs.EvError, traceKeys[i], -1, 0, "skipped: "+err.Error())
					}
					fail(i, err)
					continue
				}
				if lookup != nil && lookup(i) {
					done.Add(1)
					report(false)
					continue
				}
				timed := obsOn || tr != nil
				var t0 time.Time
				if timed {
					t0 = time.Now()
					mWait.Observe(t0.Sub(start))
				}
				jctx := ctx
				if tr != nil {
					tr.Emit(traceIDs[i], obs.EvDispatch, traceKeys[i], wi, 0, "")
					jctx = obs.WithTraceContext(ctx, tr, traceIDs[i], traceKeys[i], wi)
				}
				r, err := Run(jctx, e, w, jobs[i], fn)
				if err != nil {
					fail(i, err)
				} else {
					results[i] = r
				}
				var d time.Duration
				if timed {
					d = time.Since(t0)
					busyNS.Add(int64(d))
					mLat.Observe(d)
					mJobs.Inc()
				}
				if tr != nil {
					if err != nil {
						tr.Emit(traceIDs[i], obs.EvError, traceKeys[i], wi, d, err.Error())
					} else {
						tr.Emit(traceIDs[i], obs.EvDone, traceKeys[i], wi, d, "")
					}
				}
				ran.Add(1)
				done.Add(1)
				report(true)
			}
		}(wi)
	}
	wg.Wait()
	if obsOn {
		if wall := time.Since(start); wall > 0 {
			mUtil.Set(float64(busyNS.Load()) / (float64(wall) * float64(workers)))
		}
	}
	if len(errs) == 0 {
		return results, nil
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	return results, errs
}

// Run executes one job the way Map executes each of its jobs, on the
// caller's goroutine and worker w: one call of fn with panic
// containment. A panicking job (e.g. a buffer bounds violation in a
// trace generator) becomes that job's error instead of killing the
// whole sweep, counted on sweep/job_panics when e.Obs is set. The serve
// daemon runs each cold cell through it on a borrowed worker, so batch
// sweeps and the daemon share one runner. e may be nil.
func Run[J, R any](ctx context.Context, e *Engine, w *Worker, job J,
	fn func(context.Context, *Worker, J) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			if e != nil {
				e.Obs.Counter("sweep/job_panics").Inc()
			}
			err = fmt.Errorf("sweep: job panicked: %v", p)
		}
	}()
	return fn(ctx, w, job)
}

// Compact splits a Map outcome into the surviving results and the
// failures. A cancelled sweep is fatal: Compact returns the context
// error so callers abort instead of reporting a silently truncated
// sweep. Other per-job failures are survivable — their zero-value
// results are dropped and the Errors returned for reporting.
func Compact[R any](results []R, err error) ([]R, Errors, error) {
	if err == nil {
		return results, nil, nil
	}
	var errs Errors
	if !errors.As(err, &errs) {
		return nil, nil, err
	}
	if errs.Canceled() {
		for _, e := range errs {
			if errors.Is(e.Err, context.Canceled) || errors.Is(e.Err, context.DeadlineExceeded) {
				return nil, errs, e.Err
			}
		}
	}
	drop := make(map[int]bool, len(errs))
	for _, e := range errs {
		drop[e.Index] = true
	}
	kept := make([]R, 0, len(results)-len(errs))
	for i, r := range results {
		if !drop[i] {
			kept = append(kept, r)
		}
	}
	return kept, errs, nil
}
