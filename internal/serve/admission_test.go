package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// admClock is a manual clock wired into a bucket's nowNS seam.
type admClock struct {
	mu sync.Mutex
	ns int64
}

func (c *admClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *admClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// testBucket builds a bucket on a manual clock whose sleep records the
// requested durations without actually sleeping.
func testBucket(rate float64, burst, queue int) (*bucket, *admClock, *[]time.Duration) {
	clk := &admClock{}
	sleeps := &[]time.Duration{}
	b := &bucket{
		rate:   rate,
		burst:  float64(burst),
		queue:  queue,
		tokens: float64(burst),
		nowNS:  clk.now,
		sleep: func(_ context.Context, d time.Duration) error {
			*sleeps = append(*sleeps, d)
			return nil
		},
	}
	return b, clk, sleeps
}

func within(t *testing.T, got, want, tol time.Duration, what string) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > tol {
		t.Fatalf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestBucketBurstThenReserve(t *testing.T) {
	b, _, sleeps := testBucket(10, 2, 8)
	ctx := context.Background()

	// The burst admits instantly, no sleep.
	for i := 0; i < 2; i++ {
		wait, err := b.acquire(ctx, "c")
		if err != nil || wait != 0 {
			t.Fatalf("burst acquire %d: wait=%v err=%v", i, wait, err)
		}
	}
	if len(*sleeps) != 0 {
		t.Fatalf("burst acquires slept: %v", *sleeps)
	}

	// Empty bucket: each waiter reserves the next refill instant, FIFO.
	wait, err := b.acquire(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	within(t, wait, 100*time.Millisecond, time.Millisecond, "first reserved wait")
	wait, err = b.acquire(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	within(t, wait, 200*time.Millisecond, time.Millisecond, "second reserved wait")
	if len(*sleeps) != 2 {
		t.Fatalf("reserved acquires slept %d times, want 2", len(*sleeps))
	}
}

func TestBucketRefill(t *testing.T) {
	b, clk, _ := testBucket(10, 1, 8)
	ctx := context.Background()
	if _, err := b.acquire(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	clk.advance(100 * time.Millisecond) // exactly one token back
	wait, err := b.acquire(ctx, "c")
	if err != nil || wait != 0 {
		t.Fatalf("post-refill acquire: wait=%v err=%v, want instant", wait, err)
	}
	// Refill never exceeds the burst depth.
	clk.advance(time.Hour)
	b.mu.Lock()
	b.refillLocked()
	tokens := b.tokens
	b.mu.Unlock()
	if tokens != 1 {
		t.Fatalf("tokens after long idle = %g, want burst cap 1", tokens)
	}
}

func TestBucketOverflowRejectsWithRetryAfter(t *testing.T) {
	b, _, _ := testBucket(10, 1, 1)
	release := make(chan struct{})
	b.sleep = func(context.Context, time.Duration) error {
		<-release
		return nil
	}
	ctx := context.Background()

	if _, err := b.acquire(ctx, "c"); err != nil { // burst token
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		_, err := b.acquire(ctx, "c") // fills the queue
		waiterDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		waiting := b.waiting
		b.mu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third arrival is rejected immediately with the
	// backlog-drain estimate (waiting+1 - tokens)/rate = (1+1+1)/10.
	_, err := b.acquire(ctx, "c")
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("overflow returned %v, want *OverloadError", err)
	}
	if over.Class != "c" {
		t.Fatalf("OverloadError.Class = %q, want %q", over.Class, "c")
	}
	within(t, over.RetryAfter, 300*time.Millisecond, time.Millisecond, "RetryAfter")

	close(release)
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
}

func TestBucketCancelReturnsReservation(t *testing.T) {
	b, _, _ := testBucket(10, 1, 8)
	b.sleep = func(context.Context, time.Duration) error { return context.Canceled }
	ctx := context.Background()
	if _, err := b.acquire(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.acquire(ctx, "c"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	b.mu.Lock()
	tokens, waiting := b.tokens, b.waiting
	b.mu.Unlock()
	if tokens != 0 || waiting != 0 {
		t.Fatalf("after cancel tokens=%g waiting=%d, want reservation returned (0, 0)", tokens, waiting)
	}
}

func TestAdmissionClassValidation(t *testing.T) {
	// A NaN rate passes a "<= 0" check and turns the bucket's tokens
	// to NaN on the first refill; +Inf makes every wait and Retry-After
	// zero. Only finite positive rates are accepted.
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := newAdmission(map[string]ClassConfig{"x": {Rate: rate, Burst: 1, Queue: 1}}); err == nil {
			t.Fatalf("class with rate %g accepted", rate)
		}
	}
	a, err := newAdmission(nil) // defaults
	if err != nil {
		t.Fatal(err)
	}
	if names := a.names(); len(names) != 1 || names[0] != "interactive" {
		t.Fatalf("default classes %v, want [interactive]", names)
	}
	if _, err := a.acquire(context.Background(), "no-such-class"); err == nil {
		t.Fatal("unknown class admitted")
	}
}
