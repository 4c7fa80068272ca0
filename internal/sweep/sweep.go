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

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Engine configures one sweep run. The zero value is ready to use:
// GOMAXPROCS workers, no progress reporting, no telemetry, no
// resilience policy, no fault injection.
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
	// Policy, when non-nil, applies per-job resilience: retry with
	// capped exponential backoff and seeded jitter for transient
	// failures, a per-attempt deadline, and a per-sweep circuit
	// breaker that short-circuits the remaining jobs after a run of
	// consecutive drops. Nil reproduces the single-attempt behaviour
	// at the cost of one branch per job.
	Policy *resilience.Policy
	// Inject, when non-nil, is the chaos hook: the engine fires the
	// injector's "job" point (keyed by submission index in Map, by the
	// caller's key in Run) before every attempt. Nil — the production
	// setting — costs one branch per job; the chaos suite's
	// nil-injector benchmark holds it there.
	Inject *faultinject.Injector
	// Trace, when non-nil, receives the causal per-job event chain:
	// enqueue/dispatch/done on every job, plus attempt/retry/breaker
	// events from the resilient path and estimator/gate/store events
	// from the layers below (via the job context). Nil — the default —
	// costs one branch per job. Like Obs, the tracer observes the sweep
	// without touching its results: traced and untraced runs are
	// byte-identical.
	Trace *obs.Tracer

	// traceMeta, when set (by MapCached), supplies each job's stable
	// trace ID and human key by submission index, and transfers
	// ownership of the enqueue events to the caller. When nil, Map
	// derives IDs from a per-tracer sweep sequence number and emits the
	// enqueue chain itself.
	traceMeta func(i int) (id, key string)
}

// Progress is one advancement report of a running sweep.
type Progress struct {
	Done, Total int
	Elapsed     time.Duration
	// ETA estimates the remaining wall time from the completed
	// fraction, smoothed by an exponential moving average of the
	// per-job rate so one slow cell does not whip the estimate
	// around. It is zero (meaning "unknown") until at least two jobs
	// have completed — extrapolating a 968-matrix sweep from its
	// first finished cell produces garbage — and zero again once the
	// sweep is done. It is never negative.
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
// written against workers also runs standalone (calibration, tests).
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
// the results in submission order. Each job goes through Run with the
// sweep's breaker and its submission index as key. A failed (or
// panicking) job contributes its zero-value result and a JobError; the
// sweep continues. When ctx is cancelled or times out, workers stop
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
//
//opmlint:allow determinism — the wall clock feeds only telemetry (latency/wait histograms, utilization, ETA) and progress callbacks; results[i] depends solely on jobs[i], which the parallel==sequential equivalence tests pin byte-for-byte
func Map[J, R any](ctx context.Context, e *Engine, jobs []J, fn func(ctx context.Context, w *Worker, job J) (R, error)) ([]R, error) {
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
	// Trace identity resolves once per sweep: either the caller
	// (MapCached) supplied digest-derived IDs via traceMeta, or Map
	// derives stable fallback IDs from a per-tracer sweep sequence
	// number and the submission index — and then also owns the enqueue
	// events, emitted here in submission order before the pool starts.
	tr := e.Trace
	var traceIDs, traceKeys []string
	if tr != nil {
		meta := e.traceMeta
		ownEnqueue := meta == nil
		if meta == nil {
			sweepN := strconv.FormatUint(tr.NextSweep(), 10)
			meta = func(i int) (string, string) {
				idx := strconv.Itoa(i)
				return obs.TraceID("sweep", sweepN, "job", idx), idx
			}
		}
		traceIDs = make([]string, total)
		traceKeys = make([]string, total)
		for i := 0; i < total; i++ {
			traceIDs[i], traceKeys[i] = meta(i)
			if ownEnqueue {
				tr.Emit(traceIDs[i], obs.EvEnqueue, traceKeys[i], -1, 0, "")
			}
		}
	}
	// One breaker per Map call (= per sweep family); nil without a
	// policy. The submission index keys each job for the injector and
	// the backoff jitter, which only a policy or an injector reads.
	breaker := e.Policy.NewBreaker()
	keyed := e.Policy != nil || e.Inject != nil
	// etaRate is the EWMA-smoothed overall ns-per-job estimate,
	// guarded by mu (report is serialized).
	var etaRate float64
	report := func() {
		if e.Progress == nil && !obsOn {
			return
		}
		// Read the count under the lock: the last report to take it
		// then sees every completion, so the final Progress is Total.
		mu.Lock()
		d := int(done.Load())
		elapsed := time.Since(start)
		var eta time.Duration
		if d >= minETAJobs && d < total {
			rate := float64(elapsed) / float64(d)
			if etaRate == 0 {
				etaRate = rate
			} else {
				etaRate += etaAlpha * (rate - etaRate)
			}
			if eta = time.Duration(etaRate * float64(total-d)); eta < 0 {
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
				key := ""
				if keyed {
					key = strconv.Itoa(i)
				}
				r, err := Run(jctx, e, breaker, w, key, jobs[i], fn)
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
				done.Add(1)
				report()
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
