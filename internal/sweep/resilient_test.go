package sweep

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// fastPolicy removes real sleeps from retry tests: backoff resolves
// through the Sleep seam, which returns immediately.
func fastPolicy(attempts int) *resilience.Policy {
	return &resilience.Policy{
		MaxAttempts: attempts,
		Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	}
}

// TestRetryHealsTransientFailures checks the core retry contract: a
// job that fails transiently on its first tries succeeds within the
// attempt budget, and the counters record exactly the retries taken.
func TestRetryHealsTransientFailures(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int64
	e := &Engine{Workers: 2, Obs: reg, Policy: fastPolicy(3)}
	jobs := []int{0, 1, 2, 3}
	out, err := Map(context.Background(), e, jobs, func(ctx context.Context, _ *Worker, j int) (int, error) {
		calls.Add(1)
		if resilience.Attempt(ctx) < 2 && j%2 == 0 {
			return 0, resilience.MarkTransient(fmt.Errorf("cell %d flaked", j))
		}
		return j + 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+10 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// Jobs 0 and 2 each took 3 attempts, jobs 1 and 3 one.
	if got := calls.Load(); got != 8 {
		t.Fatalf("fn invoked %d times, want 8", got)
	}
	if got := reg.Counter("resilience/retries").Value(); got != 4 {
		t.Fatalf("resilience/retries = %d, want 4", got)
	}
	if got := reg.Counter("resilience/retry_exhausted").Value(); got != 0 {
		t.Fatalf("resilience/retry_exhausted = %d, want 0", got)
	}
}

// TestRetryExhaustionDropsJob checks a fault that outlives the budget
// surfaces as that job's error (the last attempt's cause) while its
// neighbours survive — the partial-but-annotated degradation.
func TestRetryExhaustionDropsJob(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Workers: 2, Obs: reg, Policy: fastPolicy(3)}
	out, err := Map(context.Background(), e, []int{0, 1, 2}, func(_ context.Context, _ *Worker, j int) (int, error) {
		if j == 1 {
			return 0, resilience.MarkTransient(errors.New("never heals"))
		}
		return j + 10, nil
	})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("err = %v", err)
	}
	if errs.Canceled() {
		t.Fatal("exhausted retries misreported as cancellation")
	}
	kept, dropped, cerr := Compact(out, err)
	if cerr != nil || len(kept) != 2 || len(dropped) != 1 {
		t.Fatalf("Compact = %d kept %d dropped err %v", len(kept), len(dropped), cerr)
	}
	if got := reg.Counter("resilience/retry_exhausted").Value(); got != 1 {
		t.Fatalf("resilience/retry_exhausted = %d, want 1", got)
	}
	if got := reg.Counter("resilience/retries").Value(); got != 2 {
		t.Fatalf("resilience/retries = %d, want 2", got)
	}
}

// TestPermanentErrorNotRetried checks the classifier gate: an
// unclassified (permanent) failure consumes exactly one attempt.
func TestPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	e := &Engine{Workers: 1, Policy: fastPolicy(5)}
	_, err := Map(context.Background(), e, []int{0}, func(context.Context, *Worker, int) (int, error) {
		calls.Add(1)
		return 0, errors.New("deterministic model bug")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent failure retried: %d attempts", got)
	}
}

// TestCancellationDuringBackoffNeverResubmits is the
// cancellation-racing-a-retry guarantee: a sweep cancelled while a
// job waits out its backoff must not re-submit the attempt, and the
// sweep must surface the cancellation. The Sleep seam stands in for
// the timer so the cancel lands deterministically mid-backoff.
func TestCancellationDuringBackoffNeverResubmits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	pol := &resilience.Policy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			// The sweep is cancelled exactly while this retry waits out
			// its backoff.
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	e := &Engine{Workers: 2, Policy: pol}
	_, err := Map(ctx, e, []int{0, 1, 2, 3}, func(context.Context, *Worker, int) (int, error) {
		calls.Add(1)
		return 0, resilience.MarkTransient(errors.New("flake"))
	})
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want Errors, got %v", err)
	}
	if !errs.Canceled() {
		t.Fatal("cancelled sweep must report Canceled()")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("Errors should unwrap to context.Canceled")
	}
	// Workers=2: at most the two in-flight jobs ran their first
	// attempt; the cancel mid-backoff forbids any second attempt, and
	// the drain path forbids starting the remaining jobs.
	if got := calls.Load(); got > 2 {
		t.Fatalf("fn invoked %d times after cancellation, want <= 2 (no re-submission)", got)
	}
}

// TestCancellationBetweenAttemptsRace cancels a sweep from outside
// while many transiently-failing jobs are mid-retry — the -race
// exercise of the cancel/backoff/re-submit interleavings. Retries are
// only re-submitted through SleepBackoff, which returns the context
// error once cancelled, so every attempt that does start holds a
// then-live sweep context; the assertions here are that the sweep
// terminates promptly and reports the cancellation. (The cancel can
// land between SleepBackoff approving a retry and the attempt
// starting, so "attempt sees a live context" is deliberately not
// asserted here — the deterministic no-re-submit contract is
// TestCancellationDuringBackoffNeverResubmits.)
func TestCancellationBetweenAttemptsRace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	pol := &resilience.Policy{
		MaxAttempts: 4,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			time.Sleep(20 * time.Microsecond)
			return ctx.Err()
		},
	}
	jobs := make([]int, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	_, err := Map(ctx, &Engine{Workers: 4, Policy: pol}, jobs, func(ctx context.Context, _ *Worker, _ int) (int, error) {
		started.Add(1)
		return 0, resilience.MarkTransient(errors.New("flake"))
	})
	<-done
	var errs Errors
	if !errors.As(err, &errs) || !errs.Canceled() {
		t.Fatalf("cancelled sweep err = %v", err)
	}
	if started.Load() == 0 {
		t.Fatal("no attempt ran before the cancel — the race never happened")
	}
}

// TestBreakerShortCircuitsSweep checks the circuit breaker: after the
// threshold of consecutive drops the remaining jobs fail fast with
// ErrBreakerOpen, partial results survive Compact, and the trip and
// short-circuit counters record the episode.
func TestBreakerShortCircuitsSweep(t *testing.T) {
	reg := obs.NewRegistry()
	pol := fastPolicy(1)
	pol.BreakerThreshold = 3
	e := &Engine{Workers: 1, Obs: reg, Policy: pol} // sequential: deterministic trip point
	jobs := make([]int, 10)
	for i := range jobs {
		jobs[i] = i
	}
	var calls atomic.Int64
	out, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
		calls.Add(1)
		if j >= 2 {
			return 0, errors.New("systematic failure")
		}
		return j + 10, nil
	})
	var errs Errors
	if !errors.As(err, &errs) {
		t.Fatal(err)
	}
	// Jobs 0,1 succeed; 2,3,4 fail and trip the breaker; 5..9 are
	// short-circuited without running.
	if got := calls.Load(); got != 5 {
		t.Fatalf("fn invoked %d times, want 5 (breaker should skip the rest)", got)
	}
	if len(errs) != 8 {
		t.Fatalf("%d errors, want 8", len(errs))
	}
	shorted := 0
	for _, je := range errs {
		if errors.Is(je.Err, resilience.ErrBreakerOpen) {
			shorted++
		}
	}
	if shorted != 5 {
		t.Fatalf("%d breaker short-circuits, want 5", shorted)
	}
	if errs.Canceled() {
		t.Fatal("breaker drop misreported as cancellation — Compact would discard the partials")
	}
	kept, _, cerr := Compact(out, err)
	if cerr != nil || len(kept) != 2 {
		t.Fatalf("Compact kept %d err %v, want the 2 successes", len(kept), cerr)
	}
	if got := reg.Counter("resilience/breaker_trips").Value(); got != 1 {
		t.Fatalf("resilience/breaker_trips = %d, want 1", got)
	}
	if got := reg.Counter("resilience/breaker_short_circuits").Value(); got != 5 {
		t.Fatalf("resilience/breaker_short_circuits = %d, want 5", got)
	}
}

// TestJobDeadlineRetries checks the per-attempt deadline: an attempt
// that outlives JobTimeout fails with a retryable TimeoutError while
// the sweep context stays alive, and a faster retry succeeds.
func TestJobDeadlineRetries(t *testing.T) {
	reg := obs.NewRegistry()
	pol := fastPolicy(2)
	pol.JobTimeout = 5 * time.Millisecond
	e := &Engine{Workers: 1, Obs: reg, Policy: pol}
	out, err := Map(context.Background(), e, []int{0}, func(ctx context.Context, _ *Worker, j int) (int, error) {
		if resilience.Attempt(ctx) == 0 {
			<-ctx.Done() // simulate a hung first attempt
			return 0, ctx.Err()
		}
		return 99, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 99 {
		t.Fatalf("out = %v", out)
	}
	if got := reg.Counter("resilience/job_deadline_exceeded").Value(); got != 1 {
		t.Fatalf("resilience/job_deadline_exceeded = %d, want 1", got)
	}
}

// TestJobDeadlineExhaustion checks a job that never beats its deadline
// surfaces a TimeoutError, not a bare context error — so Compact keeps
// the sweep's other results instead of treating it as cancellation.
func TestJobDeadlineExhaustion(t *testing.T) {
	pol := fastPolicy(2)
	pol.JobTimeout = 2 * time.Millisecond
	e := &Engine{Workers: 2, Policy: pol}
	out, err := Map(context.Background(), e, []int{0, 1}, func(ctx context.Context, _ *Worker, j int) (int, error) {
		if j == 0 {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 11, nil
	})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 0 {
		t.Fatalf("err = %v", err)
	}
	var te *resilience.TimeoutError
	if !errors.As(errs[0].Err, &te) {
		t.Fatalf("want TimeoutError, got %v", errs[0].Err)
	}
	if errs.Canceled() {
		t.Fatal("per-attempt deadline misreported as sweep cancellation")
	}
	if out[1] != 11 {
		t.Fatal("healthy neighbour lost its result")
	}
}

// TestInjectedFaultsHealByConstruction drives Map with the injector's
// three healing job kinds at rate 1: with one retry of headroom every
// job must succeed, because injected faults fire only on attempt 0.
func TestInjectedFaultsHealByConstruction(t *testing.T) {
	for _, kind := range []faultinject.Kind{faultinject.KindTransient, faultinject.KindPanic} {
		inj := faultinject.New(11)
		if err := inj.Add(faultinject.PointJob, kind, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		inj.Bind(reg)
		e := &Engine{Workers: 3, Obs: reg, Policy: fastPolicy(2), Inject: inj}
		jobs := make([]int, 12)
		out, err := Map(context.Background(), e, jobs, func(_ context.Context, _ *Worker, j int) (int, error) {
			return 7, nil
		})
		if err != nil {
			t.Fatalf("%v faults did not heal: %v", kind, err)
		}
		for i, v := range out {
			if v != 7 {
				t.Fatalf("kind %v: out[%d] = %d", kind, i, v)
			}
		}
		name := "fault/job_" + kind.String()
		if got := reg.Counter(name).Value(); got != 12 {
			t.Fatalf("%s = %d, want 12", name, got)
		}
		if got := reg.Counter("resilience/retries").Value(); got != 12 {
			t.Fatalf("kind %v: retries = %d, want 12", kind, got)
		}
		if kind == faultinject.KindPanic {
			if got := reg.Counter("sweep/job_panics").Value(); got != 12 {
				t.Fatalf("sweep/job_panics = %d, want 12", got)
			}
		}
	}
}

// TestInjectedPermanentFaultExhausts checks the exhaustion vector: a
// permanent injected fault never heals, so the job drops after one
// attempt (permanent = not retryable) with the injected cause.
func TestInjectedPermanentFaultExhausts(t *testing.T) {
	inj := faultinject.New(11)
	if err := inj.Add(faultinject.PointJob, faultinject.KindPermanent, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	e := &Engine{Workers: 2, Policy: fastPolicy(3), Inject: inj}
	_, err := Map(context.Background(), e, []int{0, 1}, func(context.Context, *Worker, int) (int, error) {
		calls.Add(1)
		return 0, nil
	})
	var errs Errors
	if !errors.As(err, &errs) || len(errs) != 2 {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 0 {
		t.Fatal("permanent injected fault should fire before fn on every attempt")
	}
}

// TestQuarantineRetriesAndCounts checks the validation-gate error is
// retryable and counted on resilience/quarantined.
func TestQuarantineRetriesAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Workers: 1, Obs: reg, Policy: fastPolicy(2)}
	out, err := Map(context.Background(), e, []int{0}, func(ctx context.Context, _ *Worker, _ int) (int, error) {
		if resilience.Attempt(ctx) == 0 {
			return 0, resilience.Quarantine("cell", errors.New("NaN GFlop/s"))
		}
		return 5, nil
	})
	if err != nil || out[0] != 5 {
		t.Fatalf("out %v err %v", out, err)
	}
	if got := reg.Counter("resilience/quarantined").Value(); got != 1 {
		t.Fatalf("resilience/quarantined = %d, want 1", got)
	}
}

// TestResilientMapMatchesPlainMap checks the resilient path with a
// policy but no faults is observationally identical to the plain path:
// same results, same order, no errors.
func TestResilientMapMatchesPlainMap(t *testing.T) {
	jobs := make([]int, 50)
	for i := range jobs {
		jobs[i] = i
	}
	fn := func(_ context.Context, _ *Worker, j int) (int, error) { return j * j, nil }
	plain, err1 := Map(context.Background(), &Engine{Workers: 4}, jobs, fn)
	res, err2 := Map(context.Background(), &Engine{Workers: 4, Policy: fastPolicy(3)}, jobs, fn)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range plain {
		if plain[i] != res[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, plain[i], res[i])
		}
	}
}

// TestRunSharesCallerBreaker drives Run the way the serve daemon does:
// one long-lived breaker across independent calls. Consecutive
// permanent failures trip it, and the next call fails fast without
// running fn — even with no policy on the engine.
func TestRunSharesCallerBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Obs: reg}
	br := (&resilience.Policy{BreakerThreshold: 2}).NewBreaker()
	var calls atomic.Int64
	fn := func(context.Context, *Worker, int) (int, error) {
		calls.Add(1)
		return 0, errors.New("model diverged")
	}
	for i := 0; i < 2; i++ {
		if _, err := Run(context.Background(), e, br, NewWorker(0), strconv.Itoa(i), i, fn); err == nil {
			t.Fatalf("call %d: want the job's error", i)
		}
	}
	if _, err := Run(context.Background(), e, br, NewWorker(0), "2", 2, fn); !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("call after trip = %v, want ErrBreakerOpen", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fn ran %d times, want 2 (the short-circuited call must not run)", got)
	}
	if got := reg.Counter("resilience/breaker_trips").Value(); got != 1 {
		t.Fatalf("resilience/breaker_trips = %d, want 1", got)
	}
	if got := reg.Counter("resilience/breaker_short_circuits").Value(); got != 1 {
		t.Fatalf("resilience/breaker_short_circuits = %d, want 1", got)
	}
}

// TestRunCancelledProbeReleasesBreaker checks a half-open probe whose
// caller is cancelled mid-job neither counts against the breaker nor
// wedges it: the next call probes, and its success closes the breaker.
func TestRunCancelledProbeReleasesBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Engine{Obs: reg, Policy: &resilience.Policy{BreakerThreshold: 1, BreakerCooldown: time.Nanosecond}}
	br := e.Policy.NewBreaker()
	w := NewWorker(0)
	fail := func(context.Context, *Worker, int) (int, error) { return 0, errors.New("model diverged") }
	if _, err := Run(context.Background(), e, br, w, "trip", 0, fail); err == nil {
		t.Fatal("want the job's error")
	}
	time.Sleep(time.Millisecond) // past the cooldown: the next call is the probe

	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(ctx, e, br, w, "probe", 0, func(ctx context.Context, _ *Worker, _ int) (int, error) {
		cancel()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe = %v, want context.Canceled", err)
	}
	v, err := Run(context.Background(), e, br, w, "next", 0, func(context.Context, *Worker, int) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("call after a cancelled probe = %d, %v; want 7, nil", v, err)
	}
	if br.Tripped() {
		t.Fatal("successful probe left the breaker tripped")
	}
	if got := reg.Counter("resilience/breaker_trips").Value(); got != 1 {
		t.Fatalf("resilience/breaker_trips = %d, want 1 (cancellation is not a failure)", got)
	}
}

// BenchmarkMapDisabledResilience pins the production fast path: with
// nil Policy and nil Injector, Map must bypass the resilient loop
// entirely (one branch per job). Compare against
// BenchmarkMapIdleResilience to see what enabling the machinery with
// no faults costs.
func BenchmarkMapDisabledResilience(b *testing.B) {
	benchMap(b, &Engine{Workers: 4})
}

// BenchmarkMapIdleResilience is the same sweep with the retry loop
// engaged but never firing: the per-job overhead of an armed policy.
func BenchmarkMapIdleResilience(b *testing.B) {
	benchMap(b, &Engine{Workers: 4, Policy: &resilience.Policy{MaxAttempts: 3}})
}

// BenchmarkMapNilInjector arms only the injector with an empty rule
// set: the cost of the chaos hooks when nothing can fire.
func BenchmarkMapNilInjector(b *testing.B) {
	benchMap(b, &Engine{Workers: 4, Inject: faultinject.New(1)})
}

func benchMap(b *testing.B, e *Engine) {
	jobs := make([]int, 256)
	fn := func(_ context.Context, _ *Worker, j int) (int, error) { return j + 1, nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Map(context.Background(), e, jobs, fn); err != nil {
			b.Fatal(err)
		}
	}
}
