// Package faultinject is the deterministic chaos layer of the sweep
// pipeline: a seedable injector with named injection points that the
// engine, the result gate, and the store journal consult. Production
// runs pass a nil *Injector and pay one pointer comparison per site;
// chaos runs (opmbench -faults, the chaos test suite) parse a spec
// like
//
//	seed=7,job:transient@0.1,job:panic@0.02x1,job:delay@0.2=2ms,
//	result:corrupt@0.05,store:torn@0.5,store:corrupt@0.25
//
// and get fully reproducible faults: whether a fault fires is a pure
// function of (seed, point, job key, attempt), never of wall clock,
// scheduling, or a shared RNG — so a faulty sweep runs identically no
// matter how many workers race through it, which is what lets the
// chaos suite assert byte-identical reports.
//
// Injection points and their kinds:
//
//	job     transient | permanent | panic | delay   (sweep.Run, pre-fn)
//	result  corrupt                                 (core result gate)
//	store   torn | corrupt                          (store.Put framing)
//
// Every injected fault except store:corrupt heals on retry by default:
// a rule fires only while the attempt number is below its count
// (default 1), so "transient faults + retries produce byte-identical
// reports" holds by construction. A permanent rule never heals
// (count ∞) — it is the exhaustion/breaker test vector.
package faultinject

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// Kind is the failure mode of one injection rule.
type Kind int

// Fault kinds. KindNone is the zero value ("no fault fired").
const (
	KindNone Kind = iota
	KindTransient
	KindPermanent
	KindPanic
	KindDelay
	KindCorrupt
	KindTorn
)

// String returns the spec-grammar name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindTransient:
		return "transient"
	case KindPermanent:
		return "permanent"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	case KindTorn:
		return "torn"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injection point names.
const (
	PointJob    = "job"
	PointResult = "result"
	PointStore  = "store"
)

// kindsByPoint lists the kinds each point accepts (spec validation).
var kindsByPoint = map[string][]Kind{
	PointJob:    {KindTransient, KindPermanent, KindPanic, KindDelay},
	PointResult: {KindCorrupt},
	PointStore:  {KindTorn, KindCorrupt},
}

// pointKinds returns the kinds point accepts, or an error if no
// injection site consumes point.
func pointKinds(point string) ([]Kind, error) {
	kinds, ok := kindsByPoint[point]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown injection point %q (have job, result, store)", point)
	}
	return kinds, nil
}

// rule is one parsed clause: fire kind at point with probability rate,
// for attempts below count, with an optional delay parameter.
type rule struct {
	kind  Kind
	rate  float64
	count int // attempts that fault; <0 = every attempt (permanent)
	delay time.Duration
	salt  uint64 // distinguishes same-point rules' random streams
	fired *obs.Counter
}

// InjectedPanic is the value injected panics throw. The sweep engine's
// recover treats it as a transient failure (retryable), unlike a real
// panic, which stays permanent — a deterministic bug would only panic
// again.
type InjectedPanic struct{ Key string }

func (p InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic (job %s)", p.Key)
}

// Injector decides, deterministically, which operations fault. A nil
// *Injector is the production off switch: every method no-ops after a
// single nil check, and the nil-injector benchmark holds that path to
// the cost of the check.
type Injector struct {
	seed  uint64
	rules map[string][]rule
	reg   *obs.Registry
}

// New returns an empty injector with the given decision seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, rules: map[string][]rule{}}
}

// Seed returns the injector's decision seed (0 on nil).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Enabled reports whether any rule is registered at point.
func (in *Injector) Enabled(point string) bool {
	return in != nil && len(in.rules[point]) > 0
}

// Add registers a rule: at point, fault with kind at the given rate
// (fraction of keys in [0,1]), for the first count attempts (count <=
// 0 means every attempt), with delay as the KindDelay sleep.
func (in *Injector) Add(point string, kind Kind, rate float64, count int, delay time.Duration) error {
	if in == nil {
		return fmt.Errorf("faultinject: Add on nil injector")
	}
	kinds, err := pointKinds(point)
	if err != nil {
		return err
	}
	valid := false
	for _, k := range kinds {
		valid = valid || k == kind
	}
	if !valid {
		return fmt.Errorf("faultinject: point %q does not accept kind %q", point, kind)
	}
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return fmt.Errorf("faultinject: rate %v out of [0,1]", rate)
	}
	if kind == KindPermanent {
		count = -1 // never heals
	} else if count == 0 {
		count = 1
	}
	r := rule{kind: kind, rate: rate, count: count, delay: delay,
		salt: uint64(len(in.rules[point]) + 1)}
	r.fired = in.reg.Counter("fault/" + point + "_" + kind.String()) //opmlint:allow counternames — point and kind are closed enums validated above; the full fault/<point>_<kind> namespace is enumerable
	in.rules[point] = append(in.rules[point], r)
	return nil
}

// Bind attaches the registry the per-rule fired counters publish to
// (fault/<point>_<kind>). Call before injecting; re-binding re-resolves
// every counter.
func (in *Injector) Bind(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.reg = reg
	for point, rules := range in.rules {
		for i := range rules {
			rules[i].fired = reg.Counter("fault/" + point + "_" + rules[i].kind.String()) //opmlint:allow counternames — point and kind are closed enums validated at AddRule; the full fault/<point>_<kind> namespace is enumerable
		}
		in.rules[point] = rules
	}
}

// pick returns the first rule at point that fires for (key, attempt).
// The decision hashes (seed, point, rule salt, key): a keyed uniform
// draw below rate selects the key, and the attempt gate decides
// whether this try still faults.
func (in *Injector) pick(point, key string, attempt int) (rule, bool) {
	for _, r := range in.rules[point] {
		if r.count >= 0 && attempt >= r.count {
			continue
		}
		u := float64(resilience.Hash64(in.seed, point, r.salt, key)%(1<<20)) / (1 << 20)
		if u < r.rate {
			return r, true
		}
	}
	return rule{}, false
}

// Job fires the "job" point for one sweep-job attempt. It returns nil
// (no fault), sleeps and returns nil (delay), returns a transient- or
// permanent-classified error, or panics with an InjectedPanic. The
// attempt number comes from the context (resilience.WithAttempt).
func (in *Injector) Job(ctx context.Context, key string) error {
	if in == nil {
		return nil
	}
	r, ok := in.pick(PointJob, key, resilience.Attempt(ctx))
	if !ok {
		return nil
	}
	r.fired.Inc()
	obs.TraceEvent(ctx, obs.EvFault, PointJob+":"+r.kind.String())
	switch r.kind {
	case KindTransient:
		return resilience.MarkTransient(fmt.Errorf("faultinject: injected transient fault (job %s)", key))
	case KindPermanent:
		return fmt.Errorf("faultinject: injected permanent fault (job %s)", key)
	case KindPanic:
		panic(InjectedPanic{Key: key})
	case KindDelay:
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		return nil
	}
	return nil
}

// Result fires the "result" point: true means the caller must corrupt
// the just-computed result (the validation gate's chaos vector).
func (in *Injector) Result(ctx context.Context, key string) bool {
	if in == nil {
		return false
	}
	r, ok := in.pick(PointResult, key, resilience.Attempt(ctx))
	if ok {
		r.fired.Inc()
		obs.TraceEvent(ctx, obs.EvFault, PointResult+":"+r.kind.String())
	}
	return ok
}

// StoreWrite fires the "store" point for one journal append, keyed by
// the record digest: KindTorn simulates a short write (crash
// mid-append), KindCorrupt flips payload bits after framing (silent
// media damage, caught by the CRC on replay), KindNone leaves the
// write alone. Store writes are not attempts, so rules fire on every
// matching Put.
func (in *Injector) StoreWrite(key string) Kind {
	if in == nil {
		return KindNone
	}
	r, ok := in.pick(PointStore, key, 0)
	if !ok {
		return KindNone
	}
	r.fired.Inc()
	return r.kind
}

// Parse builds an injector from a -faults spec: comma-separated
// clauses of "seed=N" or "point:kind@rate[xCOUNT][=DELAY]". See the
// package comment for the grammar and an example.
func Parse(spec string) (*Injector, error) {
	in := New(1)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", rest, err)
			}
			in.seed = seed
			continue
		}
		point, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: want point:kind@rate", clause)
		}
		if _, err := pointKinds(point); err != nil {
			return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
		}
		kindStr, rest, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q: missing @rate", clause)
		}
		var kind Kind
		for k := KindTransient; k <= KindTorn; k++ {
			if k.String() == kindStr {
				kind = k
			}
		}
		if kind == KindNone {
			return nil, fmt.Errorf("faultinject: clause %q: unknown kind %q", clause, kindStr)
		}
		var delay time.Duration
		if rateStr, delayStr, ok := strings.Cut(rest, "="); ok {
			d, err := time.ParseDuration(delayStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: clause %q: bad delay: %v", clause, err)
			}
			delay, rest = d, rateStr
		}
		count := 0
		if rateStr, countStr, ok := strings.Cut(rest, "x"); ok {
			c, err := strconv.Atoi(countStr)
			if err != nil || c < 1 {
				return nil, fmt.Errorf("faultinject: clause %q: bad count %q", clause, countStr)
			}
			count, rest = c, rateStr
		}
		rate, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: clause %q: bad rate %q: %v", clause, rest, err)
		}
		if kind == KindDelay && delay <= 0 {
			return nil, fmt.Errorf("faultinject: clause %q: delay kind needs =DURATION", clause)
		}
		if err := in.Add(point, kind, rate, count, delay); err != nil {
			return nil, fmt.Errorf("faultinject: clause %q: %w", clause, err)
		}
	}
	if total := len(in.rules); total == 0 {
		return nil, fmt.Errorf("faultinject: spec %q has no fault clauses", spec)
	}
	return in, nil
}

// String renders the injector's active rules, one clause per line,
// for the CLI's chaos banner. Empty on nil.
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	var points []string
	for p := range in.rules {
		points = append(points, p)
	}
	sort.Strings(points)
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", in.seed)
	for _, p := range points {
		for _, r := range in.rules[p] {
			fmt.Fprintf(&b, ",%s:%s@%g", p, r.kind, r.rate)
			if r.count > 1 {
				fmt.Fprintf(&b, "x%d", r.count)
			}
			if r.delay > 0 {
				fmt.Fprintf(&b, "=%s", r.delay)
			}
		}
	}
	return b.String()
}
