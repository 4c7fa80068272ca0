package faultinject

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// TestParseGrammar checks the -faults spec grammar end to end: every
// clause form parses, and the String render round-trips through Parse
// to the same rule set.
func TestParseGrammar(t *testing.T) {
	spec := "seed=9,job:transient@0.25,job:panic@0.05x2,job:delay@0.5=2ms,result:corrupt@0.1,store:torn@0.75,store:corrupt@0.3"
	in, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 9 {
		t.Fatalf("seed = %d, want 9", in.Seed())
	}
	for _, p := range []string{PointJob, PointResult, PointStore} {
		if !in.Enabled(p) {
			t.Fatalf("point %s not enabled", p)
		}
	}
	rendered := in.String()
	in2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("String output %q does not re-parse: %v", rendered, err)
	}
	if in2.String() != rendered {
		t.Fatalf("String round-trip drifted: %q vs %q", in2.String(), rendered)
	}
}

// TestParseRejects pins the spec-validation errors: each malformed
// clause is refused with a diagnostic, never silently dropped.
func TestParseRejects(t *testing.T) {
	for _, spec := range []string{
		"",                      // no clauses at all
		"seed=7",                // seed only, no faults
		"seed=x,job:panic@0.1",  // bad seed
		"job@0.1",               // missing point:kind
		"job:transient",         // missing @rate
		"job:frobnicate@0.1",    // unknown kind
		"disk:torn@0.1",         // unknown point
		"job:torn@0.1",          // kind not valid at point
		"job:transient@1.5",     // rate out of range
		"job:transient@NaN",     // NaN rate
		"job:transient@0.1x0",   // bad count
		"job:delay@0.1",         // delay without =DURATION
		"job:delay@0.1=fast",    // unparsable duration
		"result:corrupt@squish", // unparsable rate
		"proc:crash@1",          // unknown point
		"proc:kill@1",           // unknown point
		"proc:transient@0.5",    // unknown point
		"coord:kill@1",          // unknown point
		"coord:crash@1",         // unknown point
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	// No site consumes proc or coord, so the point itself is refused.
	for _, spec := range []string{"proc:kill@1", "coord:crash@1"} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), "unknown injection point") {
			t.Errorf("spec %q: error %v, want an unknown injection point", spec, err)
		}
	}
}

// TestFireDecisionsDeterministic checks whether a fault fires is a
// pure function of (seed, point, key): two injectors with the same
// spec agree on every key, and a different seed selects a different
// key set. This is the property the chaos suite's byte-identical
// report assertions rest on.
func TestFireDecisionsDeterministic(t *testing.T) {
	mk := func(seed uint64) *Injector {
		in := New(seed)
		if err := in.Add(PointJob, KindTransient, 0.3, 1, 0); err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := mk(4), mk(4), mk(5)
	ctx := context.Background()
	same, diff := true, false
	fired := 0
	for i := 0; i < 1000; i++ {
		key := strconv.Itoa(i)
		ea, eb, ec := a.Job(ctx, key), b.Job(ctx, key), c.Job(ctx, key)
		if (ea == nil) != (eb == nil) {
			same = false
		}
		if (ea == nil) != (ec == nil) {
			diff = true
		}
		if ea != nil {
			fired++
			if !resilience.Retryable(ea) {
				t.Fatalf("injected transient fault not retryable: %v", ea)
			}
		}
	}
	if !same {
		t.Fatal("same seed disagreed on fire decisions")
	}
	if !diff {
		t.Fatal("different seed fired identically on 1000 keys")
	}
	// The keyed draw should land near the configured rate.
	if fired < 200 || fired > 400 {
		t.Fatalf("rate 0.3 fired %d/1000 times", fired)
	}
}

// TestAttemptHealing checks the retry contract: a rule fires only
// while the attempt number is below its count, and a permanent rule
// never heals.
func TestAttemptHealing(t *testing.T) {
	in := New(3)
	if err := in.Add(PointJob, KindTransient, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 5; attempt++ {
		ctx := resilience.WithAttempt(context.Background(), attempt)
		err := in.Job(ctx, "k")
		if attempt < 2 && err == nil {
			t.Fatalf("attempt %d: rate-1 count-2 rule did not fire", attempt)
		}
		if attempt >= 2 && err != nil {
			t.Fatalf("attempt %d: fault did not heal: %v", attempt, err)
		}
	}

	perm := New(3)
	if err := perm.Add(PointJob, KindPermanent, 1, 7, 0); err != nil { // count forced to -1
		t.Fatal(err)
	}
	for attempt := 0; attempt < 10; attempt++ {
		ctx := resilience.WithAttempt(context.Background(), attempt)
		err := perm.Job(ctx, "k")
		if err == nil {
			t.Fatalf("permanent fault healed at attempt %d", attempt)
		}
		if resilience.Retryable(err) {
			t.Fatalf("permanent fault classified retryable: %v", err)
		}
	}
}

// TestJobKinds checks each job-point kind produces its failure mode:
// panic throws InjectedPanic, delay sleeps and succeeds, and a
// cancelled context cuts the delay short.
func TestJobKinds(t *testing.T) {
	pan := New(1)
	if err := pan.Add(PointJob, KindPanic, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			p := recover()
			ip, ok := p.(InjectedPanic)
			if !ok || ip.Key != "k" {
				t.Fatalf("recovered %v, want InjectedPanic{k}", p)
			}
			if !strings.Contains(ip.String(), "injected panic") {
				t.Fatalf("InjectedPanic string: %q", ip.String())
			}
		}()
		pan.Job(context.Background(), "k")
		t.Fatal("panic rule did not panic")
	}()

	del := New(1)
	if err := del.Add(PointJob, KindDelay, 1, 1, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := del.Job(context.Background(), "k"); err != nil {
		t.Fatalf("delay fault returned error: %v", err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("delay fault did not sleep")
	}

	slow := New(1)
	if err := slow.Add(PointJob, KindDelay, 1, 1, time.Hour); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start = time.Now()
	if err := slow.Job(ctx, "k"); err != nil {
		t.Fatalf("cancelled delay returned error: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled context did not cut the injected delay short")
	}
}

// TestStoreWriteAndResult covers the non-job points: StoreWrite
// returns the damage kind (on every Put — store writes are not
// attempts), Result reports corruption, and rates of 0 never fire.
func TestStoreWriteAndResult(t *testing.T) {
	in := New(2)
	if err := in.Add(PointStore, KindTorn, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	// count defaults to 1 but store writes always pass attempt 0, so
	// the rule fires on every matching key.
	for i := 0; i < 3; i++ {
		if k := in.StoreWrite("digest"); k != KindTorn {
			t.Fatalf("StoreWrite #%d = %v, want torn", i, k)
		}
	}

	res := New(2)
	if err := res.Add(PointResult, KindCorrupt, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !res.Result(context.Background(), "cell") {
		t.Fatal("rate-1 result rule did not fire")
	}
	if res.Result(resilience.WithAttempt(context.Background(), 1), "cell") {
		t.Fatal("result corruption did not heal on retry")
	}

	off := New(2)
	if err := off.Add(PointJob, KindTransient, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if off.Job(context.Background(), strconv.Itoa(i)) != nil {
			t.Fatal("rate-0 rule fired")
		}
	}
}

// TestBindCounters checks firing publishes to fault/<point>_<kind>
// once the registry is bound, including rules added before Bind.
func TestBindCounters(t *testing.T) {
	in := New(1)
	if err := in.Add(PointJob, KindTransient, 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	in.Bind(reg)
	for i := 0; i < 5; i++ {
		in.Job(context.Background(), strconv.Itoa(i))
	}
	if got := reg.Counter("fault/job_transient").Value(); got != 5 {
		t.Fatalf("fault/job_transient = %d, want 5", got)
	}
}

// TestNilInjector checks the production off switch: every method
// no-ops on nil.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if err := in.Job(context.Background(), "k"); err != nil {
		t.Fatal("nil Job returned error")
	}
	if in.Result(context.Background(), "k") {
		t.Fatal("nil Result fired")
	}
	if in.StoreWrite("k") != KindNone {
		t.Fatal("nil StoreWrite damaged a write")
	}
	if in.Enabled(PointJob) || in.Seed() != 0 || in.String() != "" {
		t.Fatal("nil accessors misbehaved")
	}
	if err := in.Add(PointJob, KindTransient, 1, 1, 0); err == nil {
		t.Fatal("Add on nil injector accepted")
	}
	in.Bind(obs.NewRegistry())
}

// FuzzParse holds the -faults grammar to three rules: Parse never
// panics, an accepted spec renders (String) to a spec that parses back
// to the same rendering, and a proc: or coord: clause is always
// rejected — no consumer of those points exists, so a spec naming them
// must fail loudly rather than arm nothing.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		// The package doc's example.
		"seed=7,job:transient@0.1,job:panic@0.02x1,job:delay@0.2=2ms,result:corrupt@0.05,store:torn@0.5,store:corrupt@0.25",
		// One clause per point and kind.
		"job:transient@0.5", "job:permanent@1", "job:panic@0.25x3", "job:delay@1=1ms",
		"result:corrupt@0.05", "store:torn@0.5", "store:corrupt@0.25",
		// Malformed clauses.
		"", "seed=7", "seed=x,job:panic@0.1", "job@0.1", "job:transient", "job:frobnicate@0.1",
		"disk:torn@0.1", "job:torn@0.1", "job:transient@1.5", "job:transient@NaN",
		"job:transient@0.1x0", "job:delay@0.1", "job:delay@0.1=fast",
		"proc:kill@1", "coord:crash@1", "seed=1,proc:kill@1,coord:crash@1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		for _, clause := range strings.Split(spec, ",") {
			point, _, _ := strings.Cut(strings.TrimSpace(clause), ":")
			if (point == "proc" || point == "coord") && err == nil {
				t.Fatalf("spec %q with a %s clause accepted", spec, point)
			}
		}
		if err != nil {
			return
		}
		rendered := in.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("spec %q renders as %q, which does not parse: %v", spec, rendered, err)
		}
		if again.String() != rendered {
			t.Fatalf("spec %q: rendering drifted across a re-parse: %q -> %q", spec, rendered, again.String())
		}
	})
}
