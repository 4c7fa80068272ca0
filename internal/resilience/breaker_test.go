package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives a breaker's cooldown without real sleeps.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() int64              { return c.ns.Load() }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{}
	b := (&Policy{BreakerThreshold: threshold, BreakerCooldown: cooldown}).NewBreaker()
	b.nowNS = clk.now
	return b, clk
}

// TestBreakerHalfOpenRecovery walks the full state machine: trip, fail
// fast during cooldown, admit exactly one probe after cooldown, close
// on probe success — and re-open on probe failure.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := testBreaker(2, time.Second)

	if b.Failure() {
		t.Fatal("tripped below threshold")
	}
	if !b.Failure() {
		t.Fatal("did not trip at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a job before cooldown")
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted a job 1ms before cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	if b.Allow() {
		t.Fatal("second job admitted while the probe is in flight")
	}
	// Probe fails: straight back to open for another full cooldown.
	if !b.Failure() {
		t.Fatal("failed probe did not count as a trip")
	}
	if b.Allow() {
		t.Fatal("admitted a job right after a failed probe")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no second probe after the second cooldown")
	}
	// Probe succeeds: closed, and the failure count starts fresh.
	b.Success()
	if b.Tripped() {
		t.Fatal("breaker still tripped after successful probe")
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker not admitting jobs")
	}
	if b.Failure() {
		t.Fatal("tripped on first failure after recovery — consec count not reset")
	}
}

// TestBreakerReleaseHandsBackProbe checks a probe that ends without a
// verdict (its caller was cancelled) does not wedge the breaker: the
// next caller probes at once, no trip is counted, and a closed
// breaker's consecutive count is untouched.
func TestBreakerReleaseHandsBackProbe(t *testing.T) {
	b, clk := testBreaker(2, time.Second)
	b.Failure()
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe admitted after cooldown")
	}
	b.Release()
	if !b.Allow() {
		t.Fatal("released probe slot not handed to the next caller")
	}
	if b.trips.Load() != 1 {
		t.Fatalf("trips = %d after a released probe, want 1", b.trips.Load())
	}
	b.Success()
	b.Failure()
	b.Release()
	if b.Tripped() {
		t.Fatal("Release on a closed breaker changed its state")
	}
	if !b.Failure() {
		t.Fatal("Release reset the consecutive-failure count")
	}
}

// TestBreakerZeroCooldownStaysOpen pins the batch-sweep contract: with
// no cooldown configured an open breaker never half-opens, no matter
// how much time passes.
func TestBreakerZeroCooldownStaysOpen(t *testing.T) {
	b, clk := testBreaker(1, 0)
	b.Failure()
	clk.advance(24 * time.Hour)
	if b.Allow() {
		t.Fatal("zero-cooldown breaker admitted a probe")
	}
	if !b.Tripped() {
		t.Fatal("breaker not tripped")
	}
}

// TestBreakerHalfOpenConcurrentCallers hammers an open-past-cooldown
// breaker from many goroutines and checks the half-open contract under
// contention: exactly one caller wins the probe slot per cooldown
// window, and after a successful probe the breaker serves everyone.
// Run with -race, this is also the memory-ordering check for the
// state/openedNS pair.
func TestBreakerHalfOpenConcurrentCallers(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.Failure() // trip
	clk.advance(time.Second)

	const callers = 32
	for round := 0; round < 5; round++ {
		var admitted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("round %d: %d callers admitted as probe, want exactly 1", round, got)
		}
		// Fail the probe, roll the clock past the next cooldown, and
		// contend again — every window must elect exactly one probe.
		b.Failure()
		clk.advance(time.Second)
	}

	// Let the final window's probe succeed and verify full recovery
	// under the same concurrent load.
	if !b.Allow() {
		t.Fatal("no probe in final window")
	}
	b.Success()
	var denied atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !b.Allow() {
				denied.Add(1)
			}
		}()
	}
	wg.Wait()
	if denied.Load() != 0 {
		t.Fatalf("closed breaker denied %d of %d callers", denied.Load(), callers)
	}
}
