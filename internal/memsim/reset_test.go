package memsim

import (
	"slices"
	"testing"
)

// exercise drives a deterministic mixed access pattern that touches
// every structure Reset must rewind: two buffers (the second large
// enough to spill flat MCDRAM), scalar loads/stores that repeat a line
// (served from the L1 set's MRU way) and that walk the set from way 1,
// streaming line sweeps, and enough reuse to cause evictions and
// writebacks at every level.
func exercise(s *Sim) Traffic {
	a := s.Alloc("a", 24<<10)
	b := s.Alloc("b", 48<<10)
	for pass := 0; pass < 3; pass++ {
		for off := int64(0); off < a.Size(); off += 8 {
			a.Load(off, 8)
			if off%64 == 0 {
				a.Store(off, 8)
			}
		}
		b.LoadLines(0, b.Size())
		b.StoreLines(0, b.Size()/2)
		// Strided reuse to churn the set-associative levels.
		for off := int64(0); off+8 <= b.Size(); off += 4096 {
			b.Load(off, 8)
		}
	}
	return s.Traffic()
}

// TestResetReproducesFreshSim proves a reset simulator's traffic is
// bit-identical to a brand-new one's in every memory mode — the
// property the sweep engine's per-worker simulator pool relies on.
func TestResetReproducesFreshSim(t *testing.T) {
	for _, mode := range []Mode{ModeDDR, ModeEDRAM, ModeEDRAMMemSide, ModeCache, ModeFlat, ModeHybrid} {
		cfg := testConfig(mode)
		pooled := MustNewSim(cfg)
		first := exercise(pooled)

		// A second run on the same sim without Reset must differ in
		// general (warm caches, allocator advanced); after Reset it
		// must match a fresh sim exactly.
		pooled.Reset()
		if tr := pooled.Traffic(); tr != (Traffic{}) {
			t.Fatalf("%s: Reset left traffic %+v", mode, tr)
		}
		again := exercise(pooled)
		fresh := exercise(MustNewSim(cfg))
		if again != fresh {
			t.Errorf("%s: reset sim diverged from fresh sim:\nreset: %+v\nfresh: %+v", mode, again, fresh)
		}
		if first != fresh {
			t.Errorf("%s: simulator is nondeterministic:\n%+v\n%+v", mode, first, fresh)
		}
	}

	// Pooled KNL simulators: a cell that fills many MCDRAM cache slots
	// grows the cache's arrays, and after Reset a smaller cell over the
	// same lines must miss where a fresh sim misses.
	for _, mode := range []Mode{ModeCache, ModeHybrid} {
		cfg := knlConfig(mode)
		pooled := MustNewSim(cfg)
		mcdramCell(pooled, 16<<20)
		pooled.Reset()
		again := mcdramCell(pooled, 1<<20)
		fresh := MustNewSim(cfg)
		if want := mcdramCell(fresh, 1<<20); again != want {
			t.Errorf("knl %s: reset sim diverged from fresh sim:\nreset: %+v\nfresh: %+v", mode, again, want)
		}
		if got, want := pooled.LevelStats(), fresh.LevelStats(); !slices.Equal(got, want) {
			t.Errorf("knl %s: reset sim's level stats diverged from fresh sim's:\nreset: %+v\nfresh: %+v", mode, got, want)
		}
	}
}

// knlConfig is testConfig(mode) with Knights Landing's simulated
// geometry (platform.KNL, Scale 64): a 64 KB L1, a 512 KB L2 and 256 MB
// of MCDRAM, so the MCDRAM cache has 4M slots, or 2M in hybrid mode.
func knlConfig(mode Mode) Config {
	cfg := testConfig(mode)
	cfg.L1 = CacheCfg{Size: 64 << 10, Ways: 8}
	cfg.L2 = CacheCfg{Size: 512 << 10, Ways: 16}
	cfg.MCDRAMBytes = (16 << 30) / 64
	return cfg
}

// mcdramCell stores and then loads a buffer of size bytes whose every
// line goes through the MCDRAM cache: in hybrid mode a first buffer
// takes the whole flat half, so the second lands in DDR.
func mcdramCell(s *Sim, size int64) Traffic {
	if s.cfg.Mode == ModeHybrid {
		s.Alloc("flat", s.cfg.MCDRAMBytes/2)
	}
	b := s.Alloc("ddr", size)
	b.StoreLines(0, size)
	b.LoadLines(0, size)
	return s.Traffic()
}

// TestNewSimKNLCacheAllocatesLittle: the MCDRAM cache's arrays grow
// with the slots a cell fills, so building KNL's cache-mode simulator
// allocates its on-chip caches, not tags and bits for 4M slots.
func TestNewSimKNLCacheAllocatesLittle(t *testing.T) {
	cfg := knlConfig(ModeCache)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MustNewSim(cfg)
		}
	})
	if got := r.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("NewSim(knl cache) allocates %d bytes, want under 1 MB", got)
	}
}

// TestResetRewindsAllocator checks flat-mode placement starts over
// after Reset (first allocation back in MCDRAM, no stale split flag).
func TestResetRewindsAllocator(t *testing.T) {
	s := MustNewSim(testConfig(ModeFlat)) // 64KB flat MCDRAM
	s.Alloc("big", 60<<10)
	s.Alloc("spill", 16<<10) // forces DDR spill + split flag
	if !s.Traffic().SplitFlat {
		t.Fatal("expected split allocation before reset")
	}
	s.Reset()
	a := s.Alloc("a", 32<<10)
	if !a.InMCDRAM() {
		t.Fatal("post-reset allocation should land in MCDRAM again")
	}
	if s.Traffic().SplitFlat {
		t.Fatal("split flag survived reset")
	}
	if s.Footprint() != 32<<10 {
		t.Fatalf("footprint after reset = %d", s.Footprint())
	}
}
