package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBackoffDeterministic checks the jitter is a pure function of
// (seed, key, attempt): the whole point of hash-derived backoff is
// that two runs of the same faulty sweep wait identically.
func TestBackoffDeterministic(t *testing.T) {
	p := &Policy{Seed: 7, BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond}
	q := &Policy{Seed: 7, BaseBackoff: time.Millisecond, MaxBackoff: 64 * time.Millisecond}
	for attempt := 1; attempt <= 8; attempt++ {
		for _, key := range []string{"0", "1", "42"} {
			if a, b := p.Backoff(key, attempt), q.Backoff(key, attempt); a != b {
				t.Fatalf("backoff(%s, %d) not deterministic: %v vs %v", key, attempt, a, b)
			}
		}
	}
	if p.Backoff("0", 1) == (&Policy{Seed: 8, BaseBackoff: time.Millisecond}).Backoff("0", 1) &&
		p.Backoff("1", 1) == (&Policy{Seed: 8, BaseBackoff: time.Millisecond}).Backoff("1", 1) &&
		p.Backoff("2", 1) == (&Policy{Seed: 8, BaseBackoff: time.Millisecond}).Backoff("2", 1) {
		t.Fatal("changing the seed never changed the jitter")
	}
}

// TestBackoffGrowthAndCap checks the envelope: exponential from base,
// jitter in [0.5, 1.5), hard-capped at 1.5×MaxBackoff.
func TestBackoffGrowthAndCap(t *testing.T) {
	base := 2 * time.Millisecond
	maxB := 16 * time.Millisecond
	p := &Policy{Seed: 1, BaseBackoff: base, MaxBackoff: maxB}
	for attempt := 1; attempt <= 10; attempt++ {
		nominal := base << (attempt - 1)
		if nominal > maxB {
			nominal = maxB
		}
		d := p.Backoff("k", attempt)
		lo := time.Duration(float64(nominal) * 0.5)
		hi := time.Duration(float64(nominal) * 1.5)
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, lo, hi)
		}
	}
	if d := (*Policy)(nil).Backoff("k", 3); d != 0 {
		t.Fatalf("nil policy backoff = %v, want 0", d)
	}
}

// TestRetryableClassification pins the default error taxonomy: the
// three retryable families retry, everything else is permanent.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("model diverged"), false},
		{"transient", MarkTransient(errors.New("glitch")), true},
		{"wrapped transient", fmt.Errorf("cell 3: %w", MarkTransient(errors.New("glitch"))), true},
		{"timeout", &TimeoutError{Attempt: 1, Limit: time.Second}, true},
		{"quarantine", Quarantine("cell", errors.New("nan gflops")), true},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"transient-wrapped cancel", MarkTransient(context.Canceled), false},
		{"breaker", ErrBreakerOpen, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("%s: Retryable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestQuarantineWrapping checks the quarantine error carries its key
// and cause, and nil stays nil.
func TestQuarantineWrapping(t *testing.T) {
	if Quarantine("k", nil) != nil {
		t.Fatal("Quarantine(nil) should stay nil")
	}
	cause := errors.New("hits+misses != accesses")
	err := fmt.Errorf("job: %w", Quarantine("spmv|ddr", cause))
	if !IsQuarantine(err) {
		t.Fatal("IsQuarantine missed a wrapped QuarantineError")
	}
	if !errors.Is(err, cause) {
		t.Fatal("QuarantineError should unwrap to its cause")
	}
	var q *QuarantineError
	if !errors.As(err, &q) || q.Key != "spmv|ddr" {
		t.Fatalf("quarantine key lost: %+v", q)
	}
	if IsQuarantine(errors.New("plain")) {
		t.Fatal("IsQuarantine on a plain error")
	}
}

// TestBreakerTripsOnConsecutiveFailures checks the trip threshold, the
// success reset, and the trip-once contract.
func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b := (&Policy{BreakerThreshold: 3}).NewBreaker()
	b.Failure()
	b.Failure()
	b.Success() // resets the run
	if b.Failure() || b.Failure() {
		t.Fatal("breaker tripped below threshold")
	}
	if !b.Allow() || b.Tripped() {
		t.Fatal("breaker open before threshold")
	}
	if !b.Failure() {
		t.Fatal("third consecutive failure should trip")
	}
	if b.Allow() || !b.Tripped() {
		t.Fatal("tripped breaker still allowing jobs")
	}
	if b.Failure() {
		t.Fatal("breaker reported a second trip")
	}
}

// TestBreakerNilSafety checks the disabled breaker (nil) never trips
// and a policy without a threshold returns one.
func TestBreakerNilSafety(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.Tripped() || b.Failure() {
		t.Fatal("nil breaker misbehaved")
	}
	b.Success()
	if (&Policy{}).NewBreaker() != nil || (*Policy)(nil).NewBreaker() != nil {
		t.Fatal("threshold-less policy built a breaker")
	}
}

// TestPolicyNilDefaults checks a nil policy reproduces the
// pre-resilience behaviour: one attempt, no deadline.
func TestPolicyNilDefaults(t *testing.T) {
	var p *Policy
	if p.Attempts() != 1 || p.Timeout() != 0 {
		t.Fatalf("nil policy: attempts %d timeout %v", p.Attempts(), p.Timeout())
	}
	if (&Policy{MaxAttempts: 1}).Attempts() != 1 || (&Policy{MaxAttempts: 4}).Attempts() != 4 {
		t.Fatal("attempt budget mis-resolved")
	}
}

// TestSleepBackoffCancellation checks a cancelled context aborts the
// wait immediately with the context error — the guarantee the sweep's
// no-resubmit-after-cancel behaviour rests on.
func TestSleepBackoffCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Policy{}
	start := time.Now()
	if err := p.SleepBackoff(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepBackoff on cancelled ctx = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("SleepBackoff did not return promptly on cancellation")
	}
	if err := p.SleepBackoff(context.Background(), 0); err != nil {
		t.Fatalf("zero-duration sleep = %v", err)
	}
	// The Sleep seam replaces the real wait entirely.
	called := false
	seam := &Policy{Sleep: func(context.Context, time.Duration) error { called = true; return nil }}
	if err := seam.SleepBackoff(context.Background(), time.Hour); err != nil || !called {
		t.Fatal("Sleep seam not used")
	}
}

// TestAttemptContext checks the attempt number rides the context and
// defaults to zero outside the retry loop.
func TestAttemptContext(t *testing.T) {
	ctx := context.Background()
	if Attempt(ctx) != 0 {
		t.Fatal("bare context should read attempt 0")
	}
	if got := Attempt(WithAttempt(ctx, 3)); got != 3 {
		t.Fatalf("attempt = %d, want 3", got)
	}
}

// TestHash64Deterministic checks the shared mixing hash is stable and
// sensitive to each part — the fault injector's fire decisions and the
// backoff jitter both ride on it.
func TestHash64Deterministic(t *testing.T) {
	a := Hash64(1, "job", uint64(2), "17")
	if a != Hash64(1, "job", uint64(2), "17") {
		t.Fatal("Hash64 not deterministic")
	}
	for _, other := range []uint64{
		Hash64(2, "job", uint64(2), "17"),
		Hash64(1, "store", uint64(2), "17"),
		Hash64(1, "job", uint64(3), "17"),
		Hash64(1, "job", uint64(2), "18"),
	} {
		if a == other {
			t.Fatal("Hash64 insensitive to an input part")
		}
	}
}
