package resilience

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen fails the jobs a tripped circuit breaker short-
// circuits. It is permanent (never retried) and is not a context
// error, so sweep.Compact keeps the partial results and the harness
// annotates the dropped cells instead of aborting the report.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// Breaker states. The zero value is closed, so an atomically-zeroed
// Breaker starts in the right state.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a circuit breaker: it trips after a threshold of
// *consecutive* dropped jobs (a success resets the count). With no
// cooldown configured, once open it stays open — right for a finite
// batch sweep, where the remaining cells of a systematically broken
// family should fail fast. With a positive cooldown (the serve
// daemon's configuration), an open breaker half-opens after the
// cooldown elapses: exactly one probe job is admitted; its success
// closes the breaker, its failure re-opens it for another cooldown.
// All methods are safe for concurrent use and on a nil receiver
// (which never trips).
type Breaker struct {
	threshold int64
	cooldown  time.Duration
	// nowNS is the monotonic-enough clock the cooldown is measured
	// on; a test seam so half-open transitions don't need real sleeps.
	nowNS    func() int64
	consec   atomic.Int64
	state    atomic.Int32
	openedNS atomic.Int64
	trips    atomic.Int64
}

func (b *Breaker) clock() int64 {
	if b.nowNS != nil {
		return b.nowNS()
	}
	return time.Now().UnixNano() //opmlint:allow determinism — breaker cooldown is wall-clock policy, not simulation state
}

// Allow reports whether a job may run. Closed always admits. Open
// admits nothing until the cooldown (if any) elapses; the first caller
// to observe an expired cooldown wins the half-open transition and
// becomes the single probe — concurrent callers keep failing fast
// until the probe's verdict is in.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	switch b.state.Load() {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.cooldown > 0 && b.clock()-b.openedNS.Load() >= int64(b.cooldown) {
			// CAS so exactly one concurrent caller is the probe.
			return b.state.CompareAndSwap(breakerOpen, breakerHalfOpen)
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// Success records a completed job, resetting the consecutive-failure
// count and closing a half-open breaker (the probe succeeded).
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.consec.Store(0)
	b.state.CompareAndSwap(breakerHalfOpen, breakerClosed)
}

// Failure records a dropped job (permanent failure or exhausted
// retries) and reports whether this failure tripped the breaker. A
// failed half-open probe re-opens immediately — one strike, back to
// cooldown — and counts as a trip.
func (b *Breaker) Failure() bool {
	if b == nil {
		return false
	}
	if b.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
		b.openedNS.Store(b.clock())
		b.trips.Add(1)
		return true
	}
	if b.consec.Add(1) >= b.threshold && b.state.CompareAndSwap(breakerClosed, breakerOpen) {
		b.openedNS.Store(b.clock())
		b.trips.Add(1)
		return true
	}
	return false
}

// Release records an admitted job that ended without a verdict — its
// caller's context was cancelled. The consecutive count is untouched;
// a half-open breaker re-opens with its cooldown already elapsed, so
// the next caller becomes the probe instead of the family staying
// wedged behind a probe that will never report.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.state.CompareAndSwap(breakerHalfOpen, breakerOpen)
}

// Tripped reports whether the breaker is open or probing (i.e. not
// fully closed).
func (b *Breaker) Tripped() bool {
	return b != nil && b.state.Load() != breakerClosed
}
