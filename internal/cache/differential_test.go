package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

type opKind int

const (
	opAccess opKind = iota
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

func apply(c Cache, o op) result {
	var r result
	switch o.kind {
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
// at the first operation whose results or Stats differ.
func checkAgainstRef(t *testing.T, got, ref Cache, ops []op) {
	t.Helper()
	for i, o := range ops {
		if g, w := apply(got, o), apply(ref, o); g != w {
			t.Fatalf("op %d %v = %+v, reference %+v", i, o, g, w)
		}
		if *got.Stats() != *ref.Stats() {
			t.Fatalf("op %d %v: stats %+v, reference %+v", i, o, *got.Stats(), *ref.Stats())
		}
	}
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
		case r < 600:
			o.kind = opAccess
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
// flag, and bit 7 moves the line to the top of the line address range
// (1<<57). The second byte is the line's low eight bits.
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
		ops = append(ops, o)
	}
	return ops
}

// FuzzSetAssoc decodes a geometry (1–16 ways from the first byte, 1–16
// sets from the second) and an operation stream from the rest, and
// requires SetAssoc to match the reference after every operation.
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
