// Package cache provides the cache models used by the on-package-memory
// (OPM) hierarchy simulator: set-associative LRU caches, direct-mapped
// caches (the MCDRAM cache mode on Knights Landing is direct-mapped),
// and the victim-cache coupling used by the eDRAM L4 on Broadwell.
//
// All caches operate on line addresses (byte address >> LineShift), so
// a caller visits each line an access covers once. Caches are not
// safe for concurrent use; the simulator serializes the interleaved
// access stream of all virtual threads.
package cache

// LineSize is the cache line size in bytes used across the simulator.
// Both Broadwell and Knights Landing use 64-byte lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineAddr converts a byte address into a line address.
func LineAddr(byteAddr uint64) uint64 { return byteAddr >> LineShift }

// Stats accumulates access statistics for one cache.
type Stats struct {
	Accesses   uint64 // total lookups
	Hits       uint64 // lookups that found the line
	Misses     uint64 // lookups that did not
	Evictions  uint64 // valid lines displaced by fills
	Writebacks uint64 // dirty lines displaced by fills
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitRate returns Hits/Accesses, or 0 for an untouched cache.
func (s *Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Line describes a line displaced from a cache by a fill.
type Line struct {
	Addr  uint64 // line address of the displaced line
	Dirty bool   // whether it must be written back
	Valid bool   // false when the fill landed in an empty way
}

// Cache is the interface the hierarchy simulator drives.
//
// Access performs a lookup for a line and, on a miss, fills the line
// (allocate-on-miss for both reads and writes), returning the displaced
// line if any. Write hits mark the line dirty.
type Cache interface {
	// Access looks up lineAddr, fills on miss, and returns whether it
	// hit plus the line evicted by the fill (Valid=false if none).
	Access(lineAddr uint64, write bool) (hit bool, evicted Line)
	// Probe reports whether the line is present without changing
	// replacement state.
	Probe(lineAddr uint64) bool
	// Invalidate removes the line if present, reporting presence and
	// dirtiness. Used by the victim-cache promotion path.
	Invalidate(lineAddr uint64) (found, dirty bool)
	// Insert places a line without counting an access (fills arriving
	// from below or victims arriving from above). Returns the evicted
	// line if any.
	Insert(lineAddr uint64, dirty bool) Line
	// Stats returns the accumulated statistics.
	Stats() *Stats
	// Reset clears contents and statistics.
	Reset()
}
