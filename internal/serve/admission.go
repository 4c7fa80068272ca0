package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Token-bucket admission control with per-class rates and a bounded
// wait queue. A request that finds no token either waits (FIFO by
// reservation: tokens go negative, each waiter sleeps until its
// reserved refill instant) or, when the queue is full, is rejected
// with an OverloadError carrying the Retry-After hint. Classes are
// independent buckets, so batch traffic cannot starve interactive
// queries.

// ClassConfig is one admission class's token bucket.
type ClassConfig struct {
	// Rate is the steady-state admission rate in requests per second.
	Rate float64
	// Burst is the bucket depth: how many requests can be admitted
	// instantly from a full bucket.
	Burst int
	// Queue bounds how many requests may wait for a token at once;
	// arrivals beyond it are rejected immediately with 429.
	Queue int
}

// DefaultClasses returns the admission classes the daemon starts
// with. "interactive" is /v1/query's default and "batch" is
// /v1/sweep's.
func DefaultClasses() map[string]ClassConfig {
	return map[string]ClassConfig{
		"interactive": {Rate: 200, Burst: 50, Queue: 64},
		"batch":       {Rate: 50, Burst: 16, Queue: 256},
	}
}

// OverloadError is an admission rejection: the class's wait queue is
// full. RetryAfter estimates when a retry could be queued.
type OverloadError struct {
	Class      string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: admission overload on class %q, retry after %s", e.Class, e.RetryAfter)
}

// bucket is one class's token bucket. nowNS and sleep are test seams.
type bucket struct {
	mu      sync.Mutex
	rate    float64 // tokens per second (finite, > 0)
	burst   float64
	queue   int
	tokens  float64
	lastNS  int64
	waiting int
	nowNS   func() int64
	sleep   func(context.Context, time.Duration) error
}

func (b *bucket) refillLocked() {
	now := b.nowNS()
	if elapsed := now - b.lastNS; elapsed > 0 {
		b.tokens += float64(elapsed) / 1e9 * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.lastNS = now
}

// acquire takes one token, waiting its reserved share of the refill
// when the bucket is empty. It returns the time spent queued. A full
// queue returns *OverloadError without waiting; a context cancellation
// mid-wait returns the reservation to the bucket and the ctx error.
func (b *bucket) acquire(ctx context.Context, class string) (time.Duration, error) {
	b.mu.Lock()
	b.refillLocked()
	if b.tokens >= 1 {
		b.tokens--
		b.mu.Unlock()
		return 0, nil
	}
	if b.waiting >= b.queue {
		// Retry-After: when the backlog will have drained one slot.
		need := float64(b.waiting+1) - b.tokens
		b.mu.Unlock()
		return 0, &OverloadError{Class: class,
			RetryAfter: time.Duration(need / b.rate * float64(time.Second))}
	}
	// Reserve: tokens go negative; this waiter owns the refill instant
	// at which they return to zero on its behalf. FIFO by arrival
	// under the lock.
	b.waiting++
	b.tokens--
	wait := time.Duration(-b.tokens / b.rate * float64(time.Second))
	b.mu.Unlock()

	err := b.sleep(ctx, wait)
	b.mu.Lock()
	b.waiting--
	if err != nil {
		b.tokens++ // cancelled: hand the reservation back
	}
	b.mu.Unlock()
	if err != nil {
		return wait, err
	}
	return wait, nil
}

// admission is the per-class bucket set.
type admission struct {
	classes map[string]*bucket
}

func newAdmission(classes map[string]ClassConfig) (*admission, error) {
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	a := &admission{classes: make(map[string]*bucket, len(classes))}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := classes[name]
		if !validClassName(name) {
			return nil, fmt.Errorf("serve: admission class name %q must be non-empty [a-z0-9_-] (it names the class's serve/latency metric)", name)
		}
		// NaN fails every comparison, so "<= 0" lets it through to
		// turn the tokens NaN on the first refill; +Inf makes every
		// wait and Retry-After zero.
		if !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
			return nil, fmt.Errorf("serve: admission class %q needs a finite positive rate, got %g", name, c.Rate)
		}
		if c.Burst < 1 {
			c.Burst = 1
		}
		if c.Queue < 0 {
			c.Queue = 0
		}
		a.classes[name] = &bucket{
			rate:   c.Rate,
			burst:  float64(c.Burst),
			queue:  c.Queue,
			tokens: float64(c.Burst),
			nowNS: func() int64 {
				return time.Now().UnixNano() //opmlint:allow determinism — admission pacing is wall-clock policy, never an input to results
			},
			sleep: sleepCtx,
		}
	}
	return a, nil
}

// validClassName bounds class names to metric-safe tokens: each class
// mints a serve/latency/<class> histogram, so the name set must stay
// closed and exposition-clean.
func validClassName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// names returns the configured class names, sorted.
func (a *admission) names() []string {
	out := make([]string, 0, len(a.classes))
	for name := range a.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// has reports whether class is configured. Serving paths use it to
// keep client-supplied class strings from minting metric names.
func (a *admission) has(class string) bool {
	_, ok := a.classes[class]
	return ok
}

// acquire admits one request under class, blocking in the class's wait
// queue if needed. Unknown classes are rejected outright — the class
// set is server configuration, not client input to expand.
func (a *admission) acquire(ctx context.Context, class string) (time.Duration, error) {
	b, ok := a.classes[class]
	if !ok {
		return 0, &requestError{fmt.Errorf("serve: unknown admission class %q", class)}
	}
	return b.acquire(ctx, class)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
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
