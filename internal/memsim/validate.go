package memsim

import (
	"fmt"
	"math"
)

// This file holds the checks of the result-validation gate: the
// simulator invariants every finished sweep cell must satisfy before
// its result may reach a report or the persistent store. A silently
// invalid cell (NaN throughput, impossible hit rate, traffic appearing
// from nowhere) is exactly the class of error that corrupts a
// 968-matrix figure without failing anything, so violations are
// surfaced as errors and the caller quarantines the result (core's
// gate, in gate.go) instead of committing it.

// checkFinite rejects NaN/Inf and negative values for a named field.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("memsim: %s is not finite (%v)", name, v)
	}
	if v < 0 {
		return fmt.Errorf("memsim: %s is negative (%v)", name, v)
	}
	return nil
}

// Validate checks the cross-field invariants of one evaluated result:
// throughput, time, bandwidth and flops must be finite and
// non-negative, a positive-flops run must have positive time and
// throughput, and the embedded traffic must satisfy its own
// conservation rules.
func (r *Result) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"GFlops", r.GFlops}, {"Seconds", r.Seconds}, {"MemGBs", r.MemGBs},
		{"Flops", r.Flops}, {"ComputeSec", r.ComputeSec}, {"LatencySec", r.LatencySec},
	} {
		if err := checkFinite(f.name, f.v); err != nil {
			return err
		}
	}
	if r.FootprintBytes < 0 {
		return fmt.Errorf("memsim: negative footprint (%d)", r.FootprintBytes)
	}
	if r.Flops > 0 && (r.Seconds <= 0 || r.GFlops <= 0) {
		return fmt.Errorf("memsim: %g flops evaluated to non-positive time/throughput (%gs, %g GFlop/s)",
			r.Flops, r.Seconds, r.GFlops)
	}
	return r.Traffic.Validate()
}

// Validate checks the traffic conservation invariants: an access
// stream must have been served by some source (bytes cannot vanish),
// and no source may report line fills without bytes (bytes cannot
// appear from nowhere).
func (t *Traffic) Validate() error {
	if t.FootprintBytes < 0 {
		return fmt.Errorf("memsim: traffic footprint negative (%d)", t.FootprintBytes)
	}
	var served uint64
	for src := Source(0); src < NumSources; src++ {
		if t.Lines[src] > 0 && t.Bytes[src] == 0 {
			return fmt.Errorf("memsim: source %s filled %d lines but served 0 bytes", src, t.Lines[src])
		}
		served += t.Bytes[src]
	}
	if t.Accesses > 0 && served == 0 {
		return fmt.Errorf("memsim: %d accesses issued but no source served any bytes", t.Accesses)
	}
	return nil
}

// CheckInvariants validates the per-level cache statistics of the
// simulator's last run: every level's hits and misses must partition
// its accesses (hit and miss rates in [0,1] by construction), and
// writebacks — dirty evictions — can never exceed evictions. The
// harness runs it after each cell as part of the result gate.
func (s *Sim) CheckInvariants() error {
	for _, ls := range s.LevelStats() {
		st := ls.Stats
		if st.Hits+st.Misses != st.Accesses {
			return fmt.Errorf("memsim: level %s: hits %d + misses %d != accesses %d (rate outside [0,1])",
				ls.Level, st.Hits, st.Misses, st.Accesses)
		}
		if st.Writebacks > st.Evictions {
			return fmt.Errorf("memsim: level %s: writebacks %d exceed evictions %d",
				ls.Level, st.Writebacks, st.Evictions)
		}
	}
	return s.traffic.Validate()
}
