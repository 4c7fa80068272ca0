package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// BucketSnapshot is one non-empty histogram bucket. LeNS is the
// inclusive upper bound in nanoseconds, -1 for the catch-all bucket.
type BucketSnapshot struct {
	LeNS  int64 `json:"le_ns"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the point-in-time state of one histogram.
// P50NS/P95NS/P99NS are quantile estimates interpolated from the
// power-of-two buckets (see Quantile) — good to roughly a factor of
// two inside a bucket, which is what pow2 buckets buy.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumNS   int64            `json:"sum_ns"`
	MinNS   int64            `json:"min_ns"`
	MaxNS   int64            `json:"max_ns"`
	MeanNS  int64            `json:"mean_ns"`
	P50NS   int64            `json:"p50_ns,omitempty"`
	P95NS   int64            `json:"p95_ns,omitempty"`
	P99NS   int64            `json:"p99_ns,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// Quantile estimates the q-th quantile (0 < q < 1) in nanoseconds by
// linear interpolation inside the pow2 bucket holding the target rank:
// the bucket spanning (le/2, le] is treated as uniform, the catch-all
// as spanning (largest finite bound, MaxNS]. Estimates clamp to the
// observed [MinNS, MaxNS]; q <= 0 returns MinNS, q >= 1 MaxNS, and an
// empty snapshot 0.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.MinNS
	}
	if q >= 1 {
		return s.MaxNS
	}
	target := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= target {
			lo, hi := bucketRangeNS(b.LeNS, s.MaxNS)
			frac := (target - cum) / float64(b.Count)
			est := int64(float64(lo) + frac*float64(hi-lo))
			if est < s.MinNS {
				est = s.MinNS
			}
			if est > s.MaxNS {
				est = s.MaxNS
			}
			return est
		}
		cum = next
	}
	return s.MaxNS
}

// bucketRangeNS maps a bucket's inclusive upper bound (le, in ns; -1
// for the catch-all) to the (lo, hi] interpolation range. Buckets are
// pow2 from 1µs, so a finite bucket's lower bound is half its upper,
// except bucket 0 which starts at 0.
func bucketRangeNS(le, maxNS int64) (lo, hi int64) {
	if le < 0 {
		lo = int64(BucketBound(numBuckets - 2))
		hi = maxNS
		if hi < lo {
			hi = lo
		}
		return lo, hi
	}
	if le > int64(time.Microsecond) {
		return le / 2, le
	}
	return 0, le
}

// Snapshot is a consistent-enough point-in-time dump of a registry:
// counters and gauges by name, histograms (span phases included) with
// their non-empty buckets, and optionally the run manifest.
// encoding/json renders map keys sorted, so a snapshot of a finished
// run marshals deterministically given deterministic metric values.
type Snapshot struct {
	Manifest   *Manifest                    `json:"manifest,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNS: h.sum.Load(),
		MaxNS: h.max.Load(),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.MinNS = min
	}
	if s.Count > 0 {
		s.MeanNS = s.SumNS / s.Count
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketSnapshot{LeNS: int64(BucketBound(i)), Count: n})
		}
	}
	if s.Count > 0 {
		s.P50NS = s.Quantile(0.50)
		s.P95NS = s.Quantile(0.95)
		s.P99NS = s.Quantile(0.99)
	}
	return s
}

// WriteJSON marshals a snapshot (with the given manifest, which may be
// nil) as indented JSON. Safe on a nil registry — the dump then holds
// only the manifest.
func (r *Registry) WriteJSON(w io.Writer, m *Manifest) error {
	s := r.Snapshot()
	s.Manifest = m
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile dumps the registry (and manifest) to path as JSON.
func (r *Registry) WriteFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	werr := r.WriteJSON(f, m)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: writing %s: %w", path, werr)
	}
	return nil
}
