// Package obs is the reproduction's observability layer: a lightweight
// metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms, and spans that time a phase into the histogram named by
// its path), a causal per-job event tracer that writes JSONL,
// structured logging helpers, and a run manifest for provenance. The
// sweep engine, the hierarchy simulator and the experiment harness all
// publish into one Registry, and cmd/opmbench dumps it as JSON
// (-metrics) or serves it live next to net/http/pprof (-pprof).
//
// Two invariants shape the design:
//
//   - Zero cost when disabled. Every method is safe on a nil *Registry
//     and on the nil instruments a nil registry hands out, so call
//     sites never branch on "is telemetry on" — the nil receiver IS
//     the off switch, one predictable branch per call.
//
//   - Telemetry lives beside results, never inside them. Nothing in
//     this package feeds the deterministic report bytes (text, CSV,
//     findings) that the parallel==sequential equivalence tests
//     compare; see DESIGN.md.
//
// The hot path (Counter.Add, Gauge.Set, Histogram.Observe) is a single
// atomic operation after instrument lookup; instruments are meant to be
// resolved once per sweep, not once per cell.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds every named instrument of one run. The zero value is
// not useful — use NewRegistry — but a nil *Registry is: every method
// no-ops and hands out nil instruments whose methods also no-op.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry ready for concurrent use.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// AddUint64 increments the counter by n, saturating at the int64
// maximum instead of wrapping — the convenient form for the
// simulator's uint64 traffic counters.
func (c *Counter) AddUint64(n uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		next := int64(math.MaxInt64)
		if n < math.MaxInt64 && cur <= math.MaxInt64-int64(n) {
			next = cur + int64(n)
		}
		if c.v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 holding the latest value of some level
// (worker utilization, ETA seconds, queue depth).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// numBuckets is the fixed bucket count of every histogram: bucket i
// spans (1µs·2^(i-1), 1µs·2^i], bucket 0 absorbs everything ≤ 1µs and
// the last bucket is a catch-all (≈ 36 minutes and beyond). Fixed
// power-of-two buckets keep Observe allocation-free and branch-light.
const numBuckets = 32

// Histogram is a fixed-bucket latency histogram with power-of-two
// bucket widths starting at 1µs, plus running sum/count/min/max.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	sum    atomic.Int64 // ns
	count  atomic.Int64
	min    atomic.Int64 // ns; math.MaxInt64 until first observation
	max    atomic.Int64 // ns
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := (uint64(d) + uint64(time.Microsecond) - 1) / uint64(time.Microsecond)
	if us <= 1 {
		return 0
	}
	if i := bits.Len64(us - 1); i < numBuckets {
		return i
	}
	return numBuckets - 1
}

// BucketBound returns the inclusive upper bound of bucket i, or a
// negative duration for the final catch-all bucket.
func BucketBound(i int) time.Duration {
	if i >= numBuckets-1 {
		return -1
	}
	return time.Microsecond << i
}

// Observe records one duration. Negative durations clamp to zero.
// No-op on a nil histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	h.counts[bucketIndex(d)].Add(1)
	h.sum.Add(ns)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Counter returns (creating on first use) the named counter, or nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge, or nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram, or
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = newHistogram()
	r.hists[name] = h
	return h
}
