package memsim

import (
	"slices"
	"testing"

	"repro/internal/cache"
)

// fanoutCase is one decoded FuzzFanout input: a machine set sharing one
// on-chip geometry, and the generator every sim of it runs.
type fanoutCase struct {
	cfgs  []Config
	sizes []int64 // buffer sizes, allocated in order by op 5
	ops   []byte  // 3 bytes per op
}

// decodeFanout reads a fanoutCase:
//
//	byte 0  L1: ways 1<<(b%3), sets 1<<((b>>2)%4); none when b >= 0x80
//	byte 1  L2: ways 1<<(b%3), sets 1<<((b>>2)%5)
//	byte 2  bit 0 adds a 1 KB L3; bits 1–6 pick the modes, in Mode order
//	byte 3  MCDRAM bytes: 128<<(b%5)
//	byte 4  buffer count 1 + b%4; then one size byte each, (b+1)*16 bytes
//	rest    the op stream, 3 bytes per op (see run)
func decodeFanout(data []byte) (fanoutCase, bool) {
	if len(data) < 5 {
		return fanoutCase{}, false
	}
	geom := func(b byte, maxSets byte) CacheCfg {
		ways := 1 << (b % 3)
		sets := 1 << ((b >> 2) % maxSets)
		return CacheCfg{Size: int64(ways*sets) * cache.LineSize, Ways: ways}
	}
	base := testConfig(ModeDDR)
	base.L1 = geom(data[0], 4)
	if data[0] >= 0x80 {
		base.L1 = CacheCfg{}
	}
	base.L2 = geom(data[1], 5)
	base.L3 = CacheCfg{}
	if data[2]&1 != 0 {
		base.L3 = CacheCfg{Size: 1 << 10, Ways: 2}
	}
	var c fanoutCase
	for mode := ModeDDR; mode <= ModeEDRAMMemSide; mode++ {
		if data[2]>>(1+mode)&1 == 0 {
			continue
		}
		cfg := base
		cfg.Mode = mode
		switch mode {
		case ModeEDRAM, ModeEDRAMMemSide:
			cfg.EDRAM = CacheCfg{Size: 512, Ways: 2}
		case ModeCache, ModeFlat, ModeHybrid:
			cfg.MCDRAMBytes = 128 << (data[3] % 5)
		}
		c.cfgs = append(c.cfgs, cfg)
	}
	n := 1 + int(data[4]%4)
	if len(c.cfgs) == 0 || len(data) < 5+n {
		return fanoutCase{}, false
	}
	for _, b := range data[5 : 5+n] {
		c.sizes = append(c.sizes, (int64(b)+1)*16)
	}
	c.ops = data[5+n:]
	return c, true
}

// run replays the case on sim and returns the base of every buffer it
// allocated. An op is a kind, (b0&7)%6, on buffer b0>>3 (modulo the
// buffers so far) with operands b1 and b2: Load, Store, LoadLines,
// StoreLines, ResetTraffic, or Alloc of the next buffer. The first
// buffer is allocated up front, so later ones arrive mid-stream.
func (c fanoutCase) run(sim *Sim) []uint64 {
	bufs := []Buffer{sim.Alloc("b0", c.sizes[0])}
	for i := 0; i+3 <= len(c.ops); i += 3 {
		op, x, y := c.ops[i], int64(c.ops[i+1]), int64(c.ops[i+2])
		b := bufs[int(op>>3)%len(bufs)]
		room := (b.Size() + cache.LineSize - 1) &^ (cache.LineSize - 1)
		off := x * 16 % room
		switch (op & 7) % 6 {
		case 0:
			b.Load(off, int(1+y%min(16, room-off)))
		case 1:
			b.Store(off, int(1+y%min(16, room-off)))
		case 2:
			b.LoadLines(off, 1+y*16%(room-off))
		case 3:
			b.StoreLines(off, 1+y*16%(room-off))
		case 4:
			sim.ResetTraffic()
		case 5:
			if len(bufs) < len(c.sizes) {
				bufs = append(bufs, sim.Alloc("b", c.sizes[len(bufs)]))
			}
		}
	}
	bases := make([]uint64, len(bufs))
	for i, b := range bufs {
		bases[i] = b.base
	}
	return bases
}

// FuzzFanout requires memsim.Fanout to leave every sim of a decoded
// machine set with the Traffic and LevelStats of a fresh sim running
// the same generator alone, and a sim to detach exactly when one of its
// buffer bases, in a lone run, is not congruent to the front's modulo
// the larger of the L1 and L2 set spans.
func FuzzFanout(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeFanout(data)
		if !ok {
			return
		}
		sims := make([]*Sim, len(c.cfgs))
		for i, cfg := range c.cfgs {
			sims[i] = MustNewSim(cfg)
		}
		detached := Fanout(sims, func(s *Sim) { c.run(s) })
		span := uint64(c.cfgs[0].L2.Size) / uint64(c.cfgs[0].L2.Ways)
		if l1 := c.cfgs[0].L1; l1.Size > 0 {
			span = max(span, uint64(l1.Size)/uint64(l1.Ways))
		}
		var frontBases []uint64
		for i, cfg := range c.cfgs {
			alone := MustNewSim(cfg)
			bases := c.run(alone)
			if got, want := sims[i].Traffic(), alone.Traffic(); got != want {
				t.Fatalf("%s: fan-out traffic %+v, alone %+v", cfg.Mode, got, want)
			}
			if got, want := sims[i].LevelStats(), alone.LevelStats(); !slices.Equal(got, want) {
				t.Fatalf("%s: fan-out levels %+v, alone %+v", cfg.Mode, got, want)
			}
			if i == 0 {
				frontBases = bases
				continue
			}
			congruent := true
			for j, b := range bases {
				congruent = congruent && (b-frontBases[j])&(span-1) == 0
			}
			if slices.Contains(detached, sims[i]) == congruent {
				t.Fatalf("%s: detached=%v, bases %#x against the front's %#x (span %d)",
					cfg.Mode, !congruent, bases, frontBases, span)
			}
		}
	})
}

// TestFanoutFrontResetDetaches: a generator that resets its sim mid-run
// leaves the front with nothing attached, and every other sim is run
// alone after it, so all still match lone runs.
func TestFanoutFrontResetDetaches(t *testing.T) {
	gen := func(s *Sim) {
		a := s.Alloc("a", 8<<10)
		a.StoreLines(0, 8<<10)
		s.Reset()
		b := s.Alloc("b", 4<<10)
		b.LoadLines(0, 4<<10)
	}
	var sims []*Sim
	for _, mode := range []Mode{ModeCache, ModeFlat, ModeHybrid} {
		sims = append(sims, MustNewSim(testConfig(mode)))
	}
	detached := Fanout(sims, gen)
	if !slices.Equal(detached, sims[1:]) {
		t.Fatalf("detached %d sims, want the 2 attached to the reset front", len(detached))
	}
	for _, s := range sims {
		alone := MustNewSim(s.Config())
		gen(alone)
		if s.Traffic() != alone.Traffic() || !slices.Equal(s.LevelStats(), alone.LevelStats()) {
			t.Errorf("%s: fan-out run differs from a lone one", s.Config().Mode)
		}
	}
}
