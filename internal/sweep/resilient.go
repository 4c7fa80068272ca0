package sweep

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// This file is the engine's per-job runner: panic containment, the
// Engine.Inject "job" chaos point, and the Engine.Policy loop (retry,
// backoff, per-attempt deadline, circuit breaker). Map runs every job
// through Run; the serve daemon runs each cold cell through it on a
// borrowed worker, so batch sweeps and the daemon share one loop.

// Run executes one job the way Map executes each of its jobs, on the
// caller's goroutine and worker w. With no policy, no injector and no
// breaker it is a single attempt with panic containment — the
// production fast path. Otherwise br gates the job and records its
// verdict, and up to Policy.Attempts() tries run, each with its own
// attempt-stamped (and, with JobTimeout, deadline-bounded) context,
// separated by deterministic backoff sleeps that abort — without
// re-submitting — the moment ctx is cancelled. key identifies the job
// to the injector's fire decision and the backoff jitter.
//
// A job cut short by ctx is not a failure: Run returns the context
// error and leaves br's count alone, handing a half-open probe back
// (Breaker.Release) so the next job can probe instead.
//
// With e.Obs set, Run records sweep/job_panics and the resilience/*
// counters (retries, retry_exhausted, quarantined,
// job_deadline_exceeded, breaker_trips, breaker_short_circuits); the
// resilient path emits job/attempt, job/retry_backoff and
// job/breaker_open on the trace context.
func Run[J, R any](ctx context.Context, e *Engine, br *resilience.Breaker, w *Worker, key string, job J,
	fn func(context.Context, *Worker, J) (R, error)) (R, error) {
	var (
		pol *resilience.Policy
		inj *faultinject.Injector
		reg *obs.Registry
	)
	if e != nil {
		pol, inj, reg = e.Policy, e.Inject, e.Obs
	}
	if pol == nil && inj == nil && br == nil {
		return runJob(ctx, reg, w, job, fn, nil, "")
	}
	var zero R
	if !br.Allow() {
		reg.Counter("resilience/breaker_short_circuits").Inc()
		obs.TraceEvent(ctx, obs.EvBreakerOpen, "short_circuit")
		return zero, resilience.ErrBreakerOpen
	}
	attempts := pol.Attempts()
	timeout := pol.Timeout()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		obs.TraceEvent(ctx, obs.EvAttempt, strconv.Itoa(attempt+1))
		actx := resilience.WithAttempt(ctx, attempt)
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			actx, cancel = context.WithTimeout(actx, timeout)
		}
		r, err := runJob(actx, reg, w, job, fn, inj, key)
		// Attribute attempt-deadline expiry (parent still alive) to the
		// policy: the failure is retryable, and a success that arrived
		// only after its deadline is no success at all.
		if timeout > 0 && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = &resilience.TimeoutError{Attempt: attempt, Limit: timeout}
			reg.Counter("resilience/job_deadline_exceeded").Inc()
		}
		cancel()
		if err == nil {
			br.Success()
			return r, nil
		}
		lastErr = err
		if resilience.IsQuarantine(err) {
			reg.Counter("resilience/quarantined").Inc()
		}
		if ctx.Err() != nil {
			br.Release()
			return zero, err
		}
		if !resilience.Retryable(err) {
			break
		}
		if attempt+1 >= attempts {
			if attempts > 1 {
				reg.Counter("resilience/retry_exhausted").Inc()
			}
			break
		}
		backoff := pol.Backoff(key, attempt+1)
		obs.TraceEventDur(ctx, obs.EvRetry, backoff, err.Error())
		if serr := pol.SleepBackoff(ctx, backoff); serr != nil {
			// Cancelled mid-backoff: the retry is never re-submitted.
			br.Release()
			return zero, serr
		}
		reg.Counter("resilience/retries").Inc()
	}
	if br.Failure() {
		reg.Counter("resilience/breaker_trips").Inc()
		obs.TraceEvent(ctx, obs.EvBreakerOpen, "tripped")
	}
	return zero, lastErr
}

// runJob invokes fn with panic containment: a panicking cell (e.g. a
// buffer bounds violation in a trace generator) becomes that job's
// error instead of killing the whole sweep, counted on
// sweep/job_panics. With a non-nil injector the "job" chaos point
// fires first, inside the recover scope so injected panics are
// contained like real ones — but classified transient (an
// InjectedPanic heals on retry, a real panic is a deterministic bug
// that would only panic again).
func runJob[J, R any](ctx context.Context, reg *obs.Registry, w *Worker, job J, fn func(context.Context, *Worker, J) (R, error), inj *faultinject.Injector, key string) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			reg.Counter("sweep/job_panics").Inc()
			if ip, ok := p.(faultinject.InjectedPanic); ok {
				err = resilience.MarkTransient(fmt.Errorf("sweep: job panicked: %s", ip))
				return
			}
			err = fmt.Errorf("sweep: job panicked: %v", p)
		}
	}()
	if ferr := inj.Job(ctx, key); ferr != nil {
		return r, ferr
	}
	return fn(ctx, w, job)
}
