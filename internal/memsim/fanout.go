package memsim

import (
	"fmt"
	"slices"

	"repro/internal/cache"
)

// Fanout resets every sim and drives each with gen as if it ran alone,
// running L1 and L2 once per on-chip geometry instead of once per sim.
// The first sim of each geometry (equal L1 and L2 configs) is the front:
// gen drives it, and every L2 miss it takes is passed on, translated per
// buffer, to the memory side of each other sim of that geometry, whose
// own allocator places the same buffers in its own layout. This is
// one-pass simulation of several configurations (Mattson et al. 1970):
// it is exact because nothing below L2 feeds back into L1 or L2, and
// because a sim stays attached only while every buffer's base in its
// layout is congruent to the front's modulo the larger of the L1 and
// L2 set spans, so each line keeps its L1 and L2 set. A sim that fails
// that check at some Alloc detaches, is reset and is run alone after
// its front; Fanout returns those sims. At the end each sim still
// attached takes its front's L1/L2 statistics and counters, so its
// Traffic and LevelStats equal a lone run's exactly.
//
// A sim listed twice is driven once. If gen panics, no sim is left
// attached; the sims hold partial runs until their next Reset.
func Fanout(sims []*Sim, gen func(*Sim)) (detached []*Sim) {
	var groups [][]*Sim
	for i, s := range sims {
		if slices.Contains(sims[:i], s) {
			continue
		}
		s.Reset()
		j := slices.IndexFunc(groups, func(g []*Sim) bool {
			return g[0].cfg.L1 == s.cfg.L1 && g[0].cfg.L2 == s.cfg.L2
		})
		if j < 0 {
			groups = append(groups, []*Sim{s})
		} else {
			groups[j] = append(groups[j], s)
		}
	}
	for _, g := range groups {
		detached = append(detached, front(g, gen)...)
	}
	for _, s := range detached {
		s.Reset()
		gen(s)
	}
	return detached
}

// front runs gen on g[0] with g[1:] attached and returns the sims that
// detached.
func front(g []*Sim, gen func(*Sim)) []*Sim {
	s := g[0]
	if len(g) > 1 {
		s.fan = newFanout(s.cfg, g[1:])
	}
	defer func() { s.fan = nil }()
	gen(s)
	f := s.fan
	if f == nil {
		return nil
	}
	for _, a := range f.sims {
		o := a.sim
		if s.l1 != nil {
			*o.l1.Stats() = *s.l1.Stats()
		}
		*o.l2.Stats() = *s.l2.Stats()
		o.traffic.Bytes[SrcL1] = s.traffic.Bytes[SrcL1]
		o.traffic.Bytes[SrcL2] = s.traffic.Bytes[SrcL2]
		o.traffic.Accesses = s.traffic.Accesses
		o.shared = true
	}
	s.shared = len(f.sims) > 0
	return f.detached
}

// fanout is a front's record of the sims attached to it.
type fanout struct {
	span     uint64     // congruence modulus in bytes: the larger set span
	bufs     []lineSpan // the front's buffers, in allocation order
	sims     []*attached
	detached []*Sim
}

// lineSpan is a buffer's lines [lo, lo+n).
type lineSpan struct{ lo, n uint64 }

// attached is one sim driven by a front: delta[i] maps a line of the
// front's buffer i to that sim's layout (mod 2^64).
type attached struct {
	sim   *Sim
	delta []uint64
}

func newFanout(cfg Config, others []*Sim) *fanout {
	f := &fanout{span: uint64(cfg.L2.Size / int64(cfg.L2.Ways))}
	if cfg.L1.Size > 0 {
		f.span = max(f.span, uint64(cfg.L1.Size/int64(cfg.L1.Ways)))
	}
	for _, o := range others {
		f.sims = append(f.sims, &attached{sim: o})
	}
	return f
}

// alloc places the front's new buffer b in every attached sim and
// detaches each sim whose base for it is not congruent to b's.
func (f *fanout) alloc(b Buffer) {
	rounded := uint64(b.size+cache.LineSize-1) >> cache.LineShift
	f.bufs = append(f.bufs, lineSpan{b.base >> cache.LineShift, rounded})
	kept := f.sims[:0]
	for _, a := range f.sims {
		base := a.sim.place(b.size)
		if (base-b.base)&(f.span-1) != 0 {
			f.detached = append(f.detached, a.sim)
			continue
		}
		a.delta = append(a.delta, base>>cache.LineShift-b.base>>cache.LineShift)
		kept = append(kept, a)
	}
	clear(f.sims[len(kept):])
	f.sims = kept
}

// forward passes one L2 miss of the front to every attached sim: the
// dirty victim first when there is one, then the demand line.
func (f *fanout) forward(victim uint64, dirty bool, line uint64) {
	if len(f.sims) == 0 {
		return
	}
	li, vi := f.index(line), 0
	if dirty {
		vi = f.index(victim)
	}
	for _, a := range f.sims {
		if dirty {
			a.sim.mem.writeback(victim + a.delta[vi])
		}
		a.sim.mem.fill(line + a.delta[li])
	}
}

// index returns the front buffer holding line.
func (f *fanout) index(line uint64) int {
	for i, b := range f.bufs {
		if line-b.lo < b.n {
			return i
		}
	}
	panic(fmt.Sprintf("memsim: fan-out line %#x lies in no buffer", line))
}
