// Package resilience is the fault-handling policy layer of the sweep
// pipeline: per-job retry with capped exponential backoff and seeded
// jitter, per-attempt deadlines, a circuit breaker per sweep (or, in
// the serve daemon, per kernel family), and the error taxonomy
// (transient vs permanent vs quarantined) the retry loop classifies
// failures with (Retryable).
//
// The package is policy only — it decides whether to retry, how long
// to wait, and when to stop trying; the sweep engine owns the one loop
// that applies those decisions (sweep.Run, which runs every sweep.Map
// job and every cold serve cell). Everything is deterministic for a
// given Policy.Seed: backoff jitter derives from a hash of (seed, job
// key, attempt), never from a global RNG or the clock, so two runs of
// the same faulty sweep retry identically.
//
// Like internal/obs, a nil *Policy is the off switch: every method is
// nil-safe and reproduces the pre-resilience behaviour (one attempt,
// no deadline, no breaker) at the cost of one branch per job.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
)

// Policy configures per-job resilience for one sweep. The zero value
// (and nil) disables everything: one attempt, no per-job deadline, no
// breaker.
type Policy struct {
	// MaxAttempts bounds the total tries per job, counting the first;
	// <= 1 disables retry.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff. Zero selects 1ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero selects 100ms.
	MaxBackoff time.Duration
	// Seed feeds the deterministic backoff jitter (and nothing else).
	Seed uint64
	// JobTimeout, when positive, bounds each *attempt* with its own
	// context deadline. An attempt that outlives it fails with a
	// retryable *TimeoutError; the whole-run context is unaffected.
	JobTimeout time.Duration
	// BreakerThreshold, when positive, trips the sweep's circuit
	// breaker after this many consecutive dropped jobs (permanent
	// failures or exhausted retries). A tripped breaker fails the
	// sweep's remaining jobs fast with ErrBreakerOpen so a
	// systematically broken sweep degrades to a partial-but-annotated
	// report instead of grinding through every doomed cell.
	BreakerThreshold int
	// BreakerCooldown, when positive, lets an open breaker half-open
	// after this long: one probe job is admitted, its success closes
	// the breaker, its failure re-opens it for another cooldown. Zero
	// keeps the batch-sweep behaviour — once open, open for good —
	// which is what finite sweeps want; the long-running serve daemon
	// sets a cooldown so a transiently broken family recovers.
	BreakerCooldown time.Duration
	// Sleep, when non-nil, replaces the context-aware backoff sleep —
	// the test seam for the cancellation-during-backoff races.
	Sleep func(context.Context, time.Duration) error
}

// Attempts returns the attempt budget (1 on a nil or unset policy).
func (p *Policy) Attempts() int {
	if p == nil || p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// Timeout returns the per-attempt deadline (0 = none).
func (p *Policy) Timeout() time.Duration {
	if p == nil {
		return 0
	}
	return p.JobTimeout
}

// Backoff returns the deterministic pre-retry delay for a job: capped
// exponential growth from BaseBackoff with ±50% jitter derived from
// (Seed, key, attempt). attempt counts the failures so far (>= 1).
func (p *Policy) Backoff(key string, attempt int) time.Duration {
	if p == nil {
		return 0
	}
	base := p.BaseBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	maxB := p.MaxBackoff
	if maxB <= 0 {
		maxB = 100 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	// Jitter in [0.5, 1.5): spreads retry storms without ever
	// zeroing the delay. Hash-derived, so a (seed, key, attempt)
	// triple always waits the same time.
	u := float64(hash64(p.Seed, "backoff", key, uint64(attempt))%1024) / 1024
	return time.Duration(float64(d) * (0.5 + u))
}

// SleepBackoff waits out a backoff delay, returning early with the
// context error if the sweep is cancelled mid-wait — the guarantee
// that a cancelled sweep never re-submits an in-flight retry.
func (p *Policy) SleepBackoff(ctx context.Context, d time.Duration) error {
	if p != nil && p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// NewBreaker builds the per-sweep circuit breaker the policy asks for,
// or nil (never trips) when breaking is disabled.
func (p *Policy) NewBreaker() *Breaker {
	if p == nil || p.BreakerThreshold <= 0 {
		return nil
	}
	return &Breaker{threshold: int64(p.BreakerThreshold), cooldown: p.BreakerCooldown}
}

// hash64 mixes the parts into a deterministic 64-bit value. The FNV
// stream is finished with a murmur-style avalanche: FNV's final
// multiply spreads a last-byte difference upward but barely moves the
// low bits (the prime is ~2^40, so two keys differing only in their
// final digit land within ~2^9 of each other mod 2^20), and both the
// injector's fire decision and the backoff jitter sample low bits —
// without the finalizer, per-key draws over "0", "1", "2", ... would
// be nearly identical.
func hash64(seed uint64, parts ...any) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(seed)
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			h.Write([]byte{0})
			h.Write([]byte(v))
		case uint64:
			put(v)
		default:
			fmt.Fprintf(h, "%v", v)
		}
	}
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Hash64 is the package's deterministic mixing hash, shared with the
// fault injector so both layers draw from the same keyed stream.
func Hash64(seed uint64, parts ...any) uint64 { return hash64(seed, parts...) }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so Retryable reports true for it. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// TimeoutError is an attempt that outlived the policy's per-job
// deadline. It is retryable: the next attempt gets a fresh deadline.
type TimeoutError struct {
	Attempt int
	Limit   time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("resilience: attempt %d exceeded job deadline %s", e.Attempt, e.Limit)
}

// QuarantineError is a result that failed the simulator-invariant
// validation gate: the value is discarded (never committed to the
// store) and the cause recorded. Retryable — a transient glitch heals
// on the next attempt, while a deterministic model bug exhausts the
// budget and surfaces as a dropped, annotated cell.
type QuarantineError struct {
	Key string
	Err error
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("resilience: quarantined invalid result (%s): %v", e.Key, e.Err)
}

func (e *QuarantineError) Unwrap() error { return e.Err }

// Quarantine wraps a validation failure for key. A nil err stays nil.
func Quarantine(key string, err error) error {
	if err == nil {
		return nil
	}
	return &QuarantineError{Key: key, Err: err}
}

// IsQuarantine reports whether err carries a QuarantineError.
func IsQuarantine(err error) bool {
	var q *QuarantineError
	return errors.As(err, &q)
}

// Retryable is the default failure classifier: transient-marked
// errors, per-attempt timeouts, and quarantined results retry;
// everything else (including real panics and context cancellation) is
// permanent. Deterministic model errors re-fail identically, so
// retrying unclassified failures would only slow a broken sweep down.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t *transientError
	if errors.As(err, &t) {
		return true
	}
	var to *TimeoutError
	if errors.As(err, &to) {
		return true
	}
	return IsQuarantine(err)
}
