package memsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
)

// memCall is one call the front makes on its memory side: a writeback
// of a dirty L2 victim, or the fill of a demand line.
type memCall struct {
	line      uint64
	writeback bool
}

func (c memCall) String() string {
	if c.writeback {
		return fmt.Sprintf("writeback(%#x)", c.line)
	}
	return fmt.Sprintf("fill(%#x)", c.line)
}

// memRecorder is a memory side that records every call in order and
// serves nothing, so the Sim's traffic holds only the front's counts.
type memRecorder struct{ calls []memCall }

func (r *memRecorder) fill(line uint64)      { r.calls = append(r.calls, memCall{line, false}) }
func (r *memRecorder) writeback(line uint64) { r.calls = append(r.calls, memCall{line, true}) }

// refFront is the front built only on cache.SetAssoc's Access and
// Insert, line by line: L1 Access, a dirty L1 victim into L2 by Insert,
// then L2 Access, whose dirty victim and demand line go to the memory
// side in that order.
type refFront struct {
	l1, l2  *cache.SetAssoc // l1 is nil when the geometry has none
	traffic Traffic
	calls   []memCall
}

func newRefFront(cfg Config) *refFront {
	f := &refFront{l2: cache.NewSetAssoc("L2", cfg.L2.Size, cfg.L2.Ways)}
	if cfg.L1.Size > 0 {
		f.l1 = cache.NewSetAssoc("L1", cfg.L1.Size, cfg.L1.Ways)
	}
	return f
}

// access issues the lines covering [addr, addr+n): one access for a
// scalar call, one per line for a streamed one (lines).
func (f *refFront) access(addr uint64, n int64, write, lines bool) {
	first, last := cache.LineAddr(addr), cache.LineAddr(addr+uint64(n)-1)
	if lines {
		f.traffic.Accesses += last - first + 1
	} else {
		f.traffic.Accesses++
	}
	for line := first; line <= last; line++ {
		if f.l1 != nil {
			hit, ev := f.l1.Access(line, write)
			if hit {
				f.traffic.Bytes[SrcL1] += cache.LineSize
				continue
			}
			if ev.Valid && ev.Dirty {
				f.l2.Insert(ev.Addr, true)
			}
		}
		hit, ev := f.l2.Access(line, write)
		if hit {
			f.traffic.Bytes[SrcL2] += cache.LineSize
			continue
		}
		if ev.Valid && ev.Dirty {
			f.calls = append(f.calls, memCall{ev.Addr, true})
		}
		f.calls = append(f.calls, memCall{line, false})
	}
}

// frontGeometries are the on-chip fronts FuzzFront runs every input
// on: Broadwell's (8 KB 8-way L1, 64 KB 8-way L2) and KNL's (64 KB
// 8-way L1, 512 KB 16-way L2), both at simulation scale.
var frontGeometries = []struct {
	name   string
	l1, l2 CacheCfg
}{
	{"broadwell", CacheCfg{Size: 8 << 10, Ways: 8}, CacheCfg{Size: 64 << 10, Ways: 8}},
	{"knl", CacheCfg{Size: 64 << 10, Ways: 8}, CacheCfg{Size: 512 << 10, Ways: 16}},
}

// frontBufSize is each FuzzFront buffer's size: 1 MB, twice KNL's L2,
// so the buffers together evict from every level of both fronts.
const frontBufSize = 1 << 20

// frontOp is one decoded Buffer call.
type frontOp struct {
	kind   byte // 0 Load, 1 Store, 2 LoadLines, 3 StoreLines
	buf    int
	off, n int64
}

// decodeFront reads a FuzzFront input: byte 0 gives the buffer count,
// 2 + b%3, and bit 7 drops the L1; then 4 bytes per call. In a call's
// first byte, bits 0–1 pick Load, Store, LoadLines or StoreLines and
// the rest the buffer (modulo the count). The offset is the second
// byte's 4 KB page plus the third byte, so calls that share the third
// byte share an L1 set on both fronts, and pages congruent modulo 2
// (Broadwell) or 8 (KNL) share an L2 set. The fourth byte sets the
// length: 1–16 bytes for Load and Store, which may be unaligned and
// span two lines, and up to 128 lines for LoadLines and StoreLines,
// cut at the buffer's end.
func decodeFront(data []byte) (nbuf int, noL1 bool, ops []frontOp, ok bool) {
	if len(data) < 1 {
		return 0, false, nil, false
	}
	nbuf, noL1 = 2+int(data[0]%3), data[0]&0x80 != 0
	for data = data[1:]; len(data) >= 4; data = data[4:] {
		o := frontOp{
			kind: data[0] & 3,
			buf:  int(data[0]>>2) % nbuf,
			off:  int64(data[1])<<12 + int64(data[2]),
		}
		if o.kind < 2 {
			o.n = 1 + int64(data[3]%16)
		} else {
			o.n = min(1+int64(data[3])*32, frontBufSize-o.off)
		}
		ops = append(ops, o)
	}
	return nbuf, noL1, ops, true
}

// FuzzFront holds the Sim's on-chip front (the MRU lookup in touch, the
// walk from way 1, touchLines, the dirty L1 victim's merge into L2) to
// refFront on the Broadwell and KNL geometries. After every call, the
// L1 and L2 Stats, the Traffic and the exact sequence of writebacks and
// fills handed to the memory side must be equal.
func FuzzFront(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nbuf, noL1, ops, ok := decodeFront(data)
		if !ok {
			return
		}
		for _, g := range frontGeometries {
			cfg := testConfig(ModeDDR)
			cfg.L1, cfg.L2, cfg.L3 = g.l1, g.l2, CacheCfg{}
			if noL1 {
				cfg.L1 = CacheCfg{}
			}
			sim := MustNewSim(cfg)
			rec := &memRecorder{}
			sim.mem = rec
			ref := newRefFront(cfg)
			bufs := make([]Buffer, nbuf)
			for i := range bufs {
				bufs[i] = sim.Alloc(fmt.Sprint("b", i), frontBufSize)
			}
			ref.traffic.FootprintBytes = int64(nbuf) * frontBufSize
			checked := 0
			for i, o := range ops {
				b := bufs[o.buf]
				switch o.kind {
				case 0:
					b.Load(o.off, int(o.n))
				case 1:
					b.Store(o.off, int(o.n))
				case 2:
					b.LoadLines(o.off, o.n)
				case 3:
					b.StoreLines(o.off, o.n)
				}
				ref.access(b.base+uint64(o.off), o.n, o.kind&1 == 1, o.kind >= 2)
				if err := frontDiff(sim, rec, ref, checked); err != "" {
					t.Fatalf("%s, call %d (%+v): %s", g.name, i, o, err)
				}
				checked = len(ref.calls)
			}
		}
	})
}

// frontDiff describes the first difference between the Sim's front and
// the reference, or returns "". The first checked memory-side calls
// were already compared.
func frontDiff(sim *Sim, rec *memRecorder, ref *refFront, checked int) string {
	if sim.l1 != nil && *sim.l1.Stats() != *ref.l1.Stats() {
		return fmt.Sprintf("L1 stats %+v, reference %+v", *sim.l1.Stats(), *ref.l1.Stats())
	}
	if *sim.l2.Stats() != *ref.l2.Stats() {
		return fmt.Sprintf("L2 stats %+v, reference %+v", *sim.l2.Stats(), *ref.l2.Stats())
	}
	if sim.traffic != ref.traffic {
		return fmt.Sprintf("traffic %+v, reference %+v", sim.traffic, ref.traffic)
	}
	if !slices.Equal(rec.calls[min(checked, len(rec.calls)):], ref.calls[checked:]) {
		i := checked
		for i < min(len(rec.calls), len(ref.calls)) && rec.calls[i] == ref.calls[i] {
			i++
		}
		return fmt.Sprintf("memory-side calls differ at %d: %v, reference %v",
			i, rec.calls[i:min(i+4, len(rec.calls))], ref.calls[i:min(i+4, len(ref.calls))])
	}
	return ""
}
