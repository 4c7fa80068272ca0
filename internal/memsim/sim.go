package memsim

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Address-space layout. Flat-mode MCDRAM occupies a low region so the
// allocator can place data there preferentially; DDR allocations start
// at ddrBase. The regions never collide at simulated scales.
const (
	mcdramBase = uint64(0)
	ddrBase    = uint64(1) << 44
)

// Traffic accumulates the per-source byte counts of one simulated run.
type Traffic struct {
	// Bytes[s] counts demand bytes served to the cores by source s.
	Bytes [NumSources]uint64
	// WBBytes[s] counts writeback bytes absorbed by source s (only
	// memory-side sources accumulate writebacks; inter-cache victim
	// movement is free on-die traffic).
	WBBytes [NumSources]uint64
	// Lines[s] counts demand line fills served by source s (latency
	// bound input).
	Lines [NumSources]uint64
	// MCTagLines counts accesses that consulted the MCDRAM cache's
	// in-MCDRAM tags (cache/hybrid modes); each costs a slice of
	// MCDRAM bandwidth beyond the data transfer. Flat-resident
	// accesses never pay it — the root of hybrid > cache for GEMM.
	MCTagLines uint64
	// Accesses is the total number of load/store byte-accesses issued.
	Accesses uint64
	// FootprintBytes is the total simulated allocation size.
	FootprintBytes int64
	// SplitFlat is true when flat-mode allocations straddled MCDRAM
	// and DDR (triggers the split-allocation penalty).
	SplitFlat bool
}

// TotalMemBytes returns demand+writeback bytes that crossed the
// package boundary or OPM interface (everything below L3).
func (t *Traffic) TotalMemBytes() uint64 {
	return t.Bytes[SrcEDRAM] + t.Bytes[SrcMCDRAM] + t.Bytes[SrcDDR] +
		t.WBBytes[SrcEDRAM] + t.WBBytes[SrcMCDRAM] + t.WBBytes[SrcDDR]
}

// Buffer is a simulated allocation. Offsets are byte offsets.
type Buffer struct {
	sim  *Sim
	base uint64
	size int64
	name string
}

// Size returns the allocation size in bytes.
func (b Buffer) Size() int64 { return b.size }

// InMCDRAM reports whether the buffer's base resides in flat-mode
// MCDRAM.
func (b Buffer) InMCDRAM() bool { return b.base < ddrBase }

// inBounds reports whether n bytes at off lie within an allocation of
// size bytes rounded up to whole lines. An access outside it would
// silently alias another buffer's lines and corrupt the experiment (the
// simulated analogue of a segfault), so every Buffer method panics with
// an accessFault instead. n is compared with the room left past off,
// since off+n can wrap for a huge n. It takes the size, not the Buffer,
// so the check reads one field of the receiver instead of copying it.
func inBounds(off, n, size int64) bool {
	limit := (size + cache.LineSize - 1) &^ (cache.LineSize - 1)
	return off >= 0 && n > 0 && off <= limit && n <= limit-off
}

// accessFault is the Buffer methods' panic value. Its message is
// formatted only when printed, which keeps the check small.
type accessFault struct {
	name         string
	off, n, size int64
}

func (f accessFault) Error() string {
	return fmt.Sprintf("memsim: buffer %q: access of %d bytes at %d outside %d bytes",
		f.name, f.n, f.off, f.size)
}

// Load issues a read of n bytes at byte offset off.
func (b Buffer) Load(off int64, n int) {
	if !inBounds(off, int64(n), b.size) {
		panic(accessFault{b.name, off, int64(n), b.size})
	}
	b.sim.touch(b.base+uint64(off), int64(n), false)
}

// Store issues a write of n bytes at byte offset off.
func (b Buffer) Store(off int64, n int) {
	if !inBounds(off, int64(n), b.size) {
		panic(accessFault{b.name, off, int64(n), b.size})
	}
	b.sim.touch(b.base+uint64(off), int64(n), true)
}

// LoadLines issues reads covering [off, off+n) one line at a time —
// a fast path for streaming sweeps.
func (b Buffer) LoadLines(off, n int64) {
	if !inBounds(off, n, b.size) {
		panic(accessFault{b.name, off, n, b.size})
	}
	b.sim.touchLines(b.base+uint64(off), n, false)
}

// StoreLines issues writes covering [off, off+n) one line at a time.
func (b Buffer) StoreLines(off, n int64) {
	if !inBounds(off, n, b.size) {
		panic(accessFault{b.name, off, n, b.size})
	}
	b.sim.touchLines(b.base+uint64(off), n, true)
}

// Sim is one simulated machine instance: an on-chip front over a memory
// side. The front is the Buffer API, L1 and L2; it owns the L1/L2
// statistics and the SrcL1/SrcL2 and Accesses counters. A scalar
// access (Load, Store) is bounds-checked, then each line it covers is
// looked up in its L1 set's most recently used way, then, on a miss
// there, in the rest of the set from way 1, then in L2, and L2's misses
// go to the memory side. A streamed line (LoadLines, StoreLines) takes
// the same order through one L1 Access call. The memory side is
// every level below L2, which NewSim picks once from the mode
// (memside.go); it serves L2's demand misses and absorbs L2's dirty
// victims. A Sim is not safe for concurrent use; parallel kernels are
// modelled by interleaving their access streams and by the thread/MLP
// terms of the timing model.
type Sim struct {
	cfg Config

	// The on-chip front.
	l1 *cache.SetAssoc
	l2 *cache.SetAssoc

	// The memory side; its caches are also listed here for LevelStats
	// and Reset.
	mem     memSide
	l3      *cache.SetAssoc
	edram   *cache.SetAssoc
	edramMS *cache.SetAssoc     // memory-side eDRAM (Skylake arrangement)
	mcCache *cache.DirectMapped // MCDRAM cache portion (cache/hybrid)

	mcFlatCap   int64 // flat-addressable MCDRAM bytes (flat/hybrid)
	mcAllocated int64
	ddrCursor   uint64

	traffic Traffic

	fan    *fanout // the sims this one is the front of, during Fanout
	shared bool    // the last run's L1/L2 pass also served other sims
}

// NewSim builds a simulator from a validated config.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, ddrCursor: ddrBase}
	if cfg.L1.Size > 0 {
		s.l1 = cache.NewSetAssoc("L1", cfg.L1.Size, cfg.L1.Ways)
	}
	s.l2 = cache.NewSetAssoc("L2", cfg.L2.Size, cfg.L2.Ways)
	if cfg.L3.Size > 0 {
		s.l3 = cache.NewSetAssoc("L3", cfg.L3.Size, cfg.L3.Ways)
	}
	switch cfg.Mode {
	case ModeEDRAM:
		s.edram = cache.NewSetAssoc("eDRAM", cfg.EDRAM.Size, cfg.EDRAM.Ways)
	case ModeEDRAMMemSide:
		s.edramMS = cache.NewSetAssoc("eDRAM-MS", cfg.EDRAM.Size, cfg.EDRAM.Ways)
	case ModeCache:
		s.mcCache = cache.NewDirectMapped("MCDRAM$", cfg.MCDRAMBytes)
	case ModeFlat:
		s.mcFlatCap = cfg.MCDRAMBytes
	case ModeHybrid:
		s.mcCache = cache.NewDirectMapped("MCDRAM$", cfg.MCDRAMBytes/2)
		s.mcFlatCap = cfg.MCDRAMBytes / 2
	}
	s.mem = newMemSide(s)
	return s, nil
}

// Config returns the simulator's configuration.
func (s *Sim) Config() Config { return s.cfg }

// Traffic returns a snapshot of the accumulated traffic counters.
func (s *Sim) Traffic() Traffic { return s.traffic }

// Reset returns the simulator to its freshly-constructed state: caches
// cold, allocator rewound, traffic counters cleared, and no sim
// attached to its front (see Fanout). A reset simulator
// reproduces a fresh one's traffic exactly, which lets sweep workers
// pool one simulator per configuration instead of paying the cache
// array allocations of NewSim once per sweep cell.
func (s *Sim) Reset() {
	for _, c := range []*cache.SetAssoc{s.l1, s.l2, s.l3, s.edram, s.edramMS} {
		if c != nil {
			c.Reset()
		}
	}
	if s.mcCache != nil {
		s.mcCache.Reset()
	}
	s.mcAllocated = 0
	s.ddrCursor = ddrBase
	s.traffic = Traffic{}
	s.shared = false
	if f := s.fan; f != nil {
		// A front reset mid-run drops its sims: each runs alone after.
		for _, a := range f.sims {
			f.detached = append(f.detached, a.sim)
		}
		f.sims = nil
	}
}

// ResetTraffic clears traffic counters but keeps cache contents — used
// to discard warm-up passes so steady-state behaviour is measured, as
// the paper averages multiple executions.
func (s *Sim) ResetTraffic() {
	fp := s.traffic.FootprintBytes
	split := s.traffic.SplitFlat
	s.traffic = Traffic{FootprintBytes: fp, SplitFlat: split}
	if s.fan != nil {
		for _, a := range s.fan.sims {
			a.sim.ResetTraffic()
		}
	}
}

// LevelStats is the per-level cache statistics of one simulator: one
// entry per instantiated level, nearest to farthest. Names are
// metric-safe lowercase ("l1", "mcdram_cache", ...).
type LevelStats struct {
	Level string
	Stats cache.Stats
}

// LevelStats snapshots the hit/miss/eviction/writeback counters of
// every cache level the current mode instantiates.
func (s *Sim) LevelStats() []LevelStats {
	var out []LevelStats
	add := func(name string, st *cache.Stats) {
		out = append(out, LevelStats{Level: name, Stats: *st})
	}
	for _, lv := range []struct {
		name string
		c    *cache.SetAssoc
	}{{"l1", s.l1}, {"l2", s.l2}, {"l3", s.l3}, {"edram", s.edram}, {"edram_ms", s.edramMS}} {
		if lv.c != nil {
			add(lv.name, lv.c.Stats())
		}
	}
	if s.mcCache != nil {
		add("mcdram_cache", s.mcCache.Stats())
	}
	return out
}

// RecordMetrics adds the simulator's current per-level cache
// statistics and traffic counters into reg (no-op when reg is nil):
//
//	memsim/runs                                 simulations recorded
//	memsim/<level>/{accesses,hits,misses,evictions,writebacks}
//	memsim/traffic/<source>_bytes               demand bytes served
//	memsim/traffic/<source>_wb_bytes            writeback bytes absorbed
//	memsim/traffic/<source>_lines               demand line fills
//	memsim/traffic/{mc_tag_lines,accesses}
//	memsim/fanout/shared                        runs whose L1/L2 pass was shared (Fanout)
//	memsim/fanout/solo                          runs whose L1/L2 pass was their own
//
// The sweep harness calls it once per mode of each finished job —
// Fanout resets the simulator first, so each call contributes exactly
// that mode's counts and the registry accumulates the whole sweep's
// totals.
//
//opmlint:allow counternames — level and traffic-source segments come from closed sets (Config.Levels, validated at NewSim, and the Source enum), so the full names are enumerable from the docs above
func (s *Sim) RecordMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("memsim/runs").Inc()
	for _, ls := range s.LevelStats() {
		p := "memsim/" + ls.Level + "/"
		reg.Counter(p + "accesses").AddUint64(ls.Stats.Accesses)
		reg.Counter(p + "hits").AddUint64(ls.Stats.Hits)
		reg.Counter(p + "misses").AddUint64(ls.Stats.Misses)
		reg.Counter(p + "evictions").AddUint64(ls.Stats.Evictions)
		reg.Counter(p + "writebacks").AddUint64(ls.Stats.Writebacks)
	}
	for src := Source(0); src < NumSources; src++ {
		name := strings.ToLower(src.String())
		if b := s.traffic.Bytes[src]; b > 0 {
			reg.Counter("memsim/traffic/" + name + "_bytes").AddUint64(b)
		}
		if wb := s.traffic.WBBytes[src]; wb > 0 {
			reg.Counter("memsim/traffic/" + name + "_wb_bytes").AddUint64(wb)
		}
		if l := s.traffic.Lines[src]; l > 0 {
			reg.Counter("memsim/traffic/" + name + "_lines").AddUint64(l)
		}
	}
	reg.Counter("memsim/traffic/mc_tag_lines").AddUint64(s.traffic.MCTagLines)
	reg.Counter("memsim/traffic/accesses").AddUint64(s.traffic.Accesses)
	if s.shared {
		reg.Counter("memsim/fanout/shared").Inc()
	} else {
		reg.Counter("memsim/fanout/solo").Inc()
	}
}

// Alloc reserves a simulated buffer. In flat and hybrid modes the
// allocator prefers MCDRAM (the paper's "numactl -p") and spills to
// DDR once the flat region is exhausted, setting the split flag. A
// front also allocates the buffer in every sim attached to it.
func (s *Sim) Alloc(name string, size int64) Buffer {
	if size <= 0 {
		panic(fmt.Sprintf("memsim: Alloc(%s) with size %d", name, size))
	}
	b := Buffer{sim: s, base: s.place(size), size: size, name: name}
	if s.fan != nil {
		s.fan.alloc(b)
	}
	return b
}

// place reserves size bytes, rounded to whole lines so buffers never
// share lines, and returns their base address.
func (s *Sim) place(size int64) uint64 {
	rounded := (size + cache.LineSize - 1) &^ (cache.LineSize - 1)
	s.traffic.FootprintBytes += size
	if s.mcFlatCap > 0 && s.mcAllocated+rounded <= s.mcFlatCap {
		base := mcdramBase + uint64(s.mcAllocated)
		s.mcAllocated += rounded
		return base
	}
	// Only pure flat mode suffers the MCDRAM+DDR straddle pathology;
	// in hybrid mode the cached half absorbs the spill gracefully
	// (Section 4.2.1 II vs III).
	if s.cfg.Mode == ModeFlat && s.mcAllocated > 0 {
		s.traffic.SplitFlat = true
	}
	base := s.ddrCursor
	s.ddrCursor += uint64(rounded)
	return base
}

// Footprint returns total allocated bytes (simulated scale).
func (s *Sim) Footprint() int64 { return s.traffic.FootprintBytes }

// touch issues an access of n bytes at byte address addr, visiting
// each covered line once. A line in its L1 set's most recently used way
// is served here; any other line walks the rest of the set, so no line
// compares the MRU way twice.
func (s *Sim) touch(addr uint64, n int64, write bool) {
	s.traffic.Accesses++
	first := cache.LineAddr(addr)
	last := cache.LineAddr(addr + uint64(n) - 1)
	for line := first; line <= last; line++ {
		switch {
		case s.l1 == nil:
			s.missL1(line, write, cache.Line{})
		case s.l1.HitMRU(line, write):
			s.traffic.Bytes[SrcL1] += cache.LineSize
		default:
			if hit, ev := s.l1.AccessPastMRU(line, write); hit {
				s.traffic.Bytes[SrcL1] += cache.LineSize
			} else {
				s.missL1(line, write, ev)
			}
		}
	}
}

// touchLines issues a line-granular streaming access over [addr,
// addr+n).
func (s *Sim) touchLines(addr uint64, n int64, write bool) {
	first := cache.LineAddr(addr)
	last := cache.LineAddr(addr + uint64(n) - 1)
	s.traffic.Accesses += last - first + 1
	for line := first; line <= last; line++ {
		if s.l1 == nil {
			s.missL1(line, write, cache.Line{})
		} else if hit, ev := s.l1.Access(line, write); hit {
			s.traffic.Bytes[SrcL1] += cache.LineSize
		} else {
			s.missL1(line, write, ev)
		}
	}
}

// missL1 serves a line L1 missed (or every line, without an L1): L1's
// victim merges into L2 when dirty, then L2 is looked up, and L2's
// misses go to the memory side: the dirty victim first, then the demand
// line. A front passes both on to every sim attached to it.
func (s *Sim) missL1(line uint64, write bool, victim cache.Line) {
	if victim.Valid && victim.Dirty {
		// Dirty L1 victims merge into L2. Insert discards the line it
		// evicts, so a dirty L2 victim displaced here is never written
		// back: on the golden Broadwell and Skylake FFT cells that
		// drops 64,144 of the 161,424 dirty L2 victims (Cholesky drops
		// 25, SpTRANS 8). Counting them would move every result
		// (EXPERIMENTS.md, Known deviations).
		s.l2.Insert(victim.Addr, true)
	}
	hit, ev := s.l2.Access(line, write)
	if hit {
		s.traffic.Bytes[SrcL2] += cache.LineSize
		return
	}
	dirty := ev.Valid && ev.Dirty
	if dirty {
		s.mem.writeback(ev.Addr)
	}
	s.mem.fill(line)
	if s.fan != nil {
		s.fan.forward(ev.Addr, dirty, line)
	}
}
