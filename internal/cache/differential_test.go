package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

type opKind int

const (
	opAccess opKind = iota
	opAccessHalves
	opInsert
	opInvalidate
	opProbe
	opReset
)

// op is one call in a differential stream; flag is Access's write or
// Insert's dirty argument.
type op struct {
	kind opKind
	line uint64
	flag bool
}

func (o op) String() string {
	switch o.kind {
	case opAccess:
		return fmt.Sprintf("Access(%d, %v)", o.line, o.flag)
	case opAccessHalves:
		return fmt.Sprintf("HitMRU/AccessPastMRU(%d, %v)", o.line, o.flag)
	case opInsert:
		return fmt.Sprintf("Insert(%d, %v)", o.line, o.flag)
	case opInvalidate:
		return fmt.Sprintf("Invalidate(%d)", o.line)
	case opProbe:
		return fmt.Sprintf("Probe(%d)", o.line)
	}
	return "Reset()"
}

// result is every value one operation returns: Access fills hit and
// ev, Insert ev, Invalidate hit (found) and dirty, Probe hit.
type result struct {
	hit, dirty bool
	ev         Line
}

// apply runs o on c. opAccessHalves is an Access made the way memsim's
// front makes a scalar one, HitMRU and then, only when it misses,
// AccessPastMRU; on a cache without the halves it is Access.
func apply(c Cache, o op) result {
	var r result
	switch o.kind {
	case opAccessHalves:
		if sa, ok := c.(*SetAssoc); ok {
			if r.hit = sa.HitMRU(o.line, o.flag); !r.hit {
				r.hit, r.ev = sa.AccessPastMRU(o.line, o.flag)
			}
			break
		}
		fallthrough
	case opAccess:
		r.hit, r.ev = c.Access(o.line, o.flag)
	case opInsert:
		r.ev = c.Insert(o.line, o.flag)
	case opInvalidate:
		r.hit, r.dirty = c.Invalidate(o.line)
	case opProbe:
		r.hit = c.Probe(o.line)
	case opReset:
		c.Reset()
	}
	return r
}

// checkAgainstRef drives got and ref through ops in lockstep and fails
// at the first operation whose results or Stats differ. For a SetAssoc
// it also checks the layout (checkSet) of the set each operation
// touched, right after the operation, and of every set at the end.
func checkAgainstRef(t *testing.T, got, ref Cache, ops []op) {
	t.Helper()
	sa, _ := got.(*SetAssoc)
	for i, o := range ops {
		if g, w := apply(got, o), apply(ref, o); g != w {
			t.Fatalf("op %d %v = %+v, reference %+v", i, o, g, w)
		}
		if *got.Stats() != *ref.Stats() {
			t.Fatalf("op %d %v: stats %+v, reference %+v", i, o, *got.Stats(), *ref.Stats())
		}
		if sa != nil {
			if err := checkSet(sa, o.line); err != nil {
				t.Fatalf("op %d %v: %v", i, o, err)
			}
		}
	}
	if sa != nil {
		for line := uint64(0); line <= sa.setMask; line++ {
			if err := checkSet(sa, line); err != nil {
				t.Fatalf("after %d ops: %v", len(ops), err)
			}
		}
	}
}

// checkSet reports a valid key after an empty way, or a line held
// twice, in lineAddr's set. find stops at the first empty way, so
// either would let a lookup miss a resident line or fill a second copy
// of it. Checking every set after every operation instead would cut
// FuzzSetAssoc's executions a hundredfold.
func checkSet(c *SetAssoc, lineAddr uint64) error {
	base := int(lineAddr&c.setMask) * c.ways
	set := c.keys[base : base+c.ways]
	empty := false
	for w, k := range set {
		if k == 0 {
			empty = true
			continue
		}
		if empty {
			return fmt.Errorf("set %d %#x: valid way %d follows an empty way", base/c.ways, set, w)
		}
		for _, prev := range set[:w] {
			if prev&^1 == k&^1 {
				return fmt.Errorf("set %d %#x: line %d appears twice", base/c.ways, set, k>>1-1)
			}
		}
	}
	return nil
}

// randomOps draws n operations over lines [0, domain) plus the same
// offsets at the top of the line address range (1<<57), so keys are
// exercised far from zero. Resets are rare so state builds up.
func randomOps(rng *rand.Rand, n int, domain uint64) []op {
	ops := make([]op, n)
	for i := range ops {
		line := uint64(rng.Int63n(int64(domain)))
		if rng.Intn(8) == 0 {
			line |= 1 << 57
		}
		o := op{line: line, flag: rng.Intn(3) == 0}
		switch r := rng.Intn(1000); {
		case r < 300:
			o.kind = opAccess
		case r < 600:
			o.kind = opAccessHalves
		case r < 800:
			o.kind = opInsert
		case r < 900:
			o.kind = opInvalidate
		case r < 999:
			o.kind = opProbe
		default:
			o.kind = opReset
		}
		ops[i] = o
	}
	return ops
}

func TestSetAssocMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ways := 1; ways <= 16; ways++ {
		for _, sets := range []int{1, 2, 8, 64} {
			capBytes := int64(ways*sets) * LineSize
			ops := randomOps(rng, 4000, uint64(2*ways*sets))
			checkAgainstRef(t, NewSetAssoc("sa", capBytes, ways), newRefSetAssoc("ref", capBytes, ways), ops)
		}
	}
}

// TestSetAssocEdgeCases drives SetAssoc and the reference through the
// set positions a single walk of a set treats apart: the MRU way, the
// last way of a full set, and the first empty way. Every stream works
// in set 0 (line i*sets is the set's i-th line) and ends by missing
// once per way, so the victims' order and dirty bits expose any
// reordering or lost dirty bit the case itself left behind.
func TestSetAssocEdgeCases(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16} {
		for _, sets := range []int{1, 4} {
			line := func(i int) uint64 { return uint64(i * sets) }
			acc := func(i int, w bool) op { return op{kind: opAccess, line: line(i), flag: w} }
			half := func(i int, w bool) op { return op{kind: opAccessHalves, line: line(i), flag: w} }
			ins := func(i int, d bool) op { return op{kind: opInsert, line: line(i), flag: d} }
			inv := func(i int) op { return op{kind: opInvalidate, line: line(i)} }
			// fill makes lines 0..n-1 resident, line n-1 most recent.
			fill := func(n int) []op {
				var ops []op
				for i := 0; i < n; i++ {
					ops = append(ops, acc(i, false))
				}
				return ops
			}
			drain := func(ops ...op) []op {
				for i := 0; i < ways; i++ {
					ops = append(ops, acc(1000+i, false), op{kind: opProbe, line: line(i)})
				}
				return ops
			}
			last := ways - 1
			cases := map[string][]op{
				// A write hit on the MRU way sets its dirty bit and
				// moves nothing.
				"write hit on MRU": drain(append(fill(ways), acc(last, true), acc(last, false))...),
				// A hit in the last way of a full set moves the LRU
				// line to the front.
				"hit in last way": drain(append(fill(ways), acc(0, true))...),
				// Insert of a resident line keeps one copy and ORs its
				// dirty bit, at way 0 and at the last way.
				"insert resident at way 0":    drain(append(fill(ways), ins(last, true), ins(last, false))...),
				"insert resident at last way": drain(append(append([]op{acc(0, true)}, fill(ways)[1:]...), ins(0, false))...),
				// A miss into a set with exactly one empty way fills
				// it and evicts nothing.
				"miss into one empty way": drain(append(fill(last), acc(last, true))...),
				// Invalidating the last way leaves the set's one empty
				// way at the end for the next miss.
				"invalidate last way": drain(append(fill(ways), inv(0), acc(2000, true))...),
				// Invalidating the MRU way of a full set, then
				// inserting it back clean.
				"invalidate MRU then insert": drain(append(fill(ways), acc(last, true), inv(last), ins(last, false))...),
				// The same positions reached through HitMRU and
				// AccessPastMRU: the MRU write hit, and walks from way
				// 1 that hit the last way or fill the one empty way.
				"halves write hit on MRU":        drain(append(fill(ways), half(last, true), half(last, false))...),
				"halves hit in last way":         drain(append(fill(ways), half(0, true))...),
				"halves miss into one empty way": drain(append(fill(last), half(last, true))...),
			}
			for name, ops := range cases {
				t.Run(fmt.Sprintf("%s/ways=%d/sets=%d", name, ways, sets), func(t *testing.T) {
					capBytes := int64(ways*sets) * LineSize
					checkAgainstRef(t, NewSetAssoc("sa", capBytes, ways), newRefSetAssoc("ref", capBytes, ways), ops)
				})
			}
		}
	}
}

// TestCheckSetCatchesPastMRUMisuse: AccessPastMRU for a line in the MRU
// way breaks its precondition, and its walk from way 1 leaves the line
// in both way 0 and way 1. checkSet, which checkAgainstRef runs after
// every operation, must report that, so an Access made of the halves in
// the wrong order fails the differential tests instead of passing
// silently.
func TestCheckSetCatchesPastMRUMisuse(t *testing.T) {
	c := NewSetAssoc("sa", 4*LineSize, 4)
	c.Access(7, false)
	c.AccessPastMRU(7, false)
	if err := checkSet(c, 7); err == nil {
		t.Fatalf("checkSet passed a set holding line 7 twice: %#x", c.keys)
	}
}

func TestDirectMappedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, lines := range []int64{1, 2, 64, 128, 4096} {
		capBytes := lines * LineSize
		ops := randomOps(rng, 20000, uint64(2*lines))
		checkAgainstRef(t, NewDirectMapped("dm", capBytes), newRefDirectMapped("ref", capBytes), ops)
	}
}

// decodeOps reads two bytes per operation. In the first, bits 0–2 pick
// the operation — Access for 0–2, Insert for 3–4, Invalidate for 5,
// Probe for 6, and for 7 Reset only when the byte is 0xff and Access
// otherwise, so streams rarely clear — bit 3 is the write or dirty
// flag, bit 4 makes an Access through HitMRU and AccessPastMRU
// (opAccessHalves), and bit 7 moves the line to the top of the line
// address range (1<<57). The second byte is the line's low eight bits.
func decodeOps(data []byte) []op {
	ops := make([]op, 0, len(data)/2)
	for ; len(data) >= 2; data = data[2:] {
		b, line := data[0], uint64(data[1])
		if b&0x80 != 0 {
			line |= 1 << 57
		}
		o := op{line: line, flag: b&0x08 != 0}
		switch b & 7 {
		case 3, 4:
			o.kind = opInsert
		case 5:
			o.kind = opInvalidate
		case 6:
			o.kind = opProbe
		case 7:
			if b == 0xff {
				o.kind = opReset
			}
		}
		if o.kind == opAccess && b&0x10 != 0 {
			o.kind = opAccessHalves
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzSetAssoc decodes a geometry (1–16 ways from the first byte, 1–16
// sets from the second) and an operation stream from the rest, and
// requires SetAssoc to match the reference and keep its sets' layout
// after every operation. Accesses made through HitMRU and
// AccessPastMRU are held to the reference's Access too.
func FuzzSetAssoc(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := 1 + int(data[0]%16)
		sets := 1 << (data[1] % 5)
		capBytes := int64(ways*sets) * LineSize
		checkAgainstRef(t, NewSetAssoc("sa", capBytes, ways), newRefSetAssoc("ref", capBytes, ways), decodeOps(data[2:]))
	})
}

// FuzzDirectMapped decodes a line count (1–256 from the first byte)
// and an operation stream from the rest, and requires DirectMapped to
// match the reference after every operation.
func FuzzDirectMapped(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		capBytes := int64(1<<(data[0]%9)) * LineSize
		checkAgainstRef(t, NewDirectMapped("dm", capBytes), newRefDirectMapped("ref", capBytes), decodeOps(data[1:]))
	})
}
