package memsim

import "repro/internal/cache"

// ddrLine is the first line address of the DDR region: lines below it
// are flat-mode MCDRAM.
const ddrLine = ddrBase >> cache.LineShift

// memSide is every level of a Sim below L2. It serves the demand lines
// L2 misses and absorbs the dirty lines L2 evicts, counting both into
// its Sim's traffic. Nothing it does feeds back into L1 or L2, which is
// what lets one front drive several memory sides (Fanout).
type memSide interface {
	fill(line uint64)
	writeback(line uint64)
}

// newMemSide picks s's memory side from the caches NewSim built: DRAM
// (DDR behind any MCDRAM) or the memory-side eDRAM in front of DDR, under
// the L3 and its eDRAM victim cache when the platform has an L3.
func newMemSide(s *Sim) memSide {
	var mem memSide = &dram{t: &s.traffic, mcCache: s.mcCache}
	if s.edramMS != nil {
		mem = &edramMS{t: &s.traffic, c: s.edramMS}
	}
	if s.l3 != nil {
		mem = &llc{t: &s.traffic, l3: s.l3, edram: s.edram, mem: mem}
	}
	return mem
}

// count records one demand line served by src.
func (t *Traffic) count(src Source) {
	t.Bytes[src] += cache.LineSize
	t.Lines[src]++
}

// llc is the shared L3 with, in ModeEDRAM, Broadwell's eDRAM victim
// cache beside it, over the memory below.
type llc struct {
	t     *Traffic
	l3    *cache.SetAssoc
	edram *cache.SetAssoc // nil unless ModeEDRAM
	mem   memSide
}

func (c *llc) fill(line uint64) {
	hit, ev := c.l3.Access(line, false)
	if ev.Valid {
		c.evict(ev)
	}
	if hit {
		c.t.count(SrcL3)
		return
	}
	// L3 miss: probe the eDRAM victim cache if present.
	if c.edram != nil {
		if found, dirty := c.edram.Invalidate(line); found {
			c.t.count(SrcEDRAM)
			// Promoted line re-enters L3 (already inserted by the
			// Access fill above); preserve dirtiness.
			if dirty {
				c.l3.Insert(line, true)
			}
			return
		}
	}
	c.mem.fill(line)
}

// writeback absorbs a dirty L2 victim into L3.
func (c *llc) writeback(line uint64) {
	if ev := c.l3.Insert(line, true); ev.Valid {
		c.evict(ev)
	}
}

// evict routes an L3 victim into the eDRAM victim cache when enabled,
// else writes back dirty lines to memory.
func (c *llc) evict(ev cache.Line) {
	if c.edram != nil {
		// The victim install itself consumes eDRAM (OPIO) bandwidth.
		c.t.WBBytes[SrcEDRAM] += cache.LineSize
		if ev4 := c.edram.Insert(ev.Addr, ev.Dirty); ev4.Valid && ev4.Dirty {
			c.mem.writeback(ev4.Addr)
		}
		return
	}
	if ev.Dirty {
		c.mem.writeback(ev.Addr)
	}
}

// dram is KNL's and the baseline's memory: lines below ddrLine are
// flat-mode MCDRAM (flat and hybrid modes); the rest is DDR, behind the
// direct-mapped MCDRAM cache in cache and hybrid modes.
type dram struct {
	t       *Traffic
	mcCache *cache.DirectMapped // nil in ddr and flat modes
}

func (d *dram) fill(line uint64) {
	switch {
	case line < ddrLine:
		d.t.count(SrcMCDRAM)
	case d.mcCache != nil:
		d.t.MCTagLines++
		hit, ev := d.mcCache.Access(line, false)
		if ev.Valid && ev.Dirty {
			d.t.WBBytes[SrcDDR] += cache.LineSize
		}
		if hit {
			d.t.count(SrcMCDRAM)
			return
		}
		// Miss: the fill crosses DDR and the install occupies MCDRAM
		// bandwidth; demand bytes attribute to DDR.
		d.t.count(SrcDDR)
		d.t.WBBytes[SrcMCDRAM] += cache.LineSize
	default:
		d.t.count(SrcDDR)
	}
}

func (d *dram) writeback(line uint64) {
	switch {
	case line < ddrLine:
		d.t.WBBytes[SrcMCDRAM] += cache.LineSize
	case d.mcCache != nil:
		// The memory-side cache absorbs the writeback.
		if ev := d.mcCache.Insert(line, true); ev.Valid && ev.Dirty {
			d.t.WBBytes[SrcDDR] += cache.LineSize
		}
		d.t.WBBytes[SrcMCDRAM] += cache.LineSize
	default:
		d.t.WBBytes[SrcDDR] += cache.LineSize
	}
}

// edramMS is the Skylake-style memory-side eDRAM: a set-associative
// buffer behind the DRAM controller that caches all DRAM traffic (fills
// install directly, unlike the Broadwell victim cache that only
// captures L3 evictions).
type edramMS struct {
	t *Traffic
	c *cache.SetAssoc
}

func (e *edramMS) fill(line uint64) {
	hit, ev := e.c.Access(line, false)
	if ev.Valid && ev.Dirty {
		e.t.WBBytes[SrcDDR] += cache.LineSize
	}
	if hit {
		e.t.count(SrcEDRAM)
		return
	}
	e.t.count(SrcDDR)
	// The install occupies eDRAM bandwidth.
	e.t.WBBytes[SrcEDRAM] += cache.LineSize
}

func (e *edramMS) writeback(line uint64) {
	if ev := e.c.Insert(line, true); ev.Valid && ev.Dirty {
		e.t.WBBytes[SrcDDR] += cache.LineSize
	}
	e.t.WBBytes[SrcEDRAM] += cache.LineSize
}
