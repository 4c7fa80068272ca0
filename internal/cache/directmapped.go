package cache

import (
	"fmt"
	"math/bits"
)

// DirectMapped is a direct-mapped cache. The MCDRAM cache mode on
// Knights Landing is direct-mapped with the tags stored in MCDRAM
// itself (Section 2.2 of the paper), which is why its conflict misses
// matter for the cache-vs-hybrid comparison the paper reports.
//
// Valid and dirty are bitsets, one bit per line, so Reset clears an
// eighth of the bytes a flag per line would take; a tag counts only
// while its valid bit is set.
//
// The arrays start empty and cover only the slots below the highest
// slot filled so far: a miss that fills a slot past them doubles them,
// or grows them to the next power of two past that slot if it lies
// further, never past the line count. A slot past them holds no line.
// KNL's simulated MCDRAM cache has 4M slots, most of which a cell never
// fills; a cell that fills every slot allocates at most twice the full
// arrays' bytes, once per cache.
type DirectMapped struct {
	setMask uint64
	tags    []uint64
	valid   []uint64
	dirty   []uint64
	stats   Stats
}

// NewDirectMapped builds a direct-mapped cache of the given capacity.
// The line count must be a power of two.
func NewDirectMapped(name string, capacityBytes int64) *DirectMapped {
	lines := capacityBytes / LineSize
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("cache %s: line count %d not a power of two", name, lines))
	}
	return &DirectMapped{setMask: uint64(lines - 1)}
}

// Stats returns the accumulated statistics.
func (c *DirectMapped) Stats() *Stats { return &c.stats }

// Reset clears contents and statistics. The arrays keep their length,
// so a pooled simulator grows them once.
func (c *DirectMapped) Reset() {
	clear(c.valid)
	clear(c.dirty)
	c.stats = Stats{}
}

// slot returns lineAddr's index plus the bitset word and bit of that
// index, and whether the line is resident there.
func (c *DirectMapped) slot(lineAddr uint64) (idx, word, bit uint64, hit bool) {
	idx = lineAddr & c.setMask
	word, bit = idx>>6, 1<<(idx&63)
	return idx, word, bit, idx < uint64(len(c.tags)) && c.valid[word]&bit != 0 && c.tags[idx] == lineAddr
}

// Access implements Cache.
func (c *DirectMapped) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	idx, w, b, hit := c.slot(lineAddr)
	if hit {
		c.stats.Hits++
		if write {
			c.dirty[w] |= b
		}
		return true, Line{}
	}
	c.stats.Misses++
	if idx >= uint64(len(c.tags)) {
		c.grow(idx)
	}
	return false, c.fill(idx, w, b, lineAddr, write)
}

// Probe implements Cache.
func (c *DirectMapped) Probe(lineAddr uint64) bool {
	_, _, _, hit := c.slot(lineAddr)
	return hit
}

// Invalidate implements Cache.
func (c *DirectMapped) Invalidate(lineAddr uint64) (bool, bool) {
	_, w, b, hit := c.slot(lineAddr)
	if !hit {
		return false, false
	}
	dirty := c.dirty[w]&b != 0
	c.valid[w] &^= b
	c.dirty[w] &^= b
	return true, dirty
}

// Insert implements Cache.
func (c *DirectMapped) Insert(lineAddr uint64, dirty bool) Line {
	idx, w, b, hit := c.slot(lineAddr)
	if !hit {
		if idx >= uint64(len(c.tags)) {
			c.grow(idx)
		}
		return c.fill(idx, w, b, lineAddr, dirty)
	}
	if dirty {
		c.dirty[w] |= b
	}
	return Line{}
}

func (c *DirectMapped) fill(idx, w, b, lineAddr uint64, dirty bool) Line {
	var ev Line
	if c.valid[w]&b != 0 {
		ev = Line{Addr: c.tags[idx], Dirty: c.dirty[w]&b != 0, Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[idx] = lineAddr
	c.valid[w] |= b
	if dirty {
		c.dirty[w] |= b
	} else {
		c.dirty[w] &^= b
	}
	return ev
}

// grow extends the arrays to cover slot idx: to twice their length, at
// least one bitset word of slots, and at least the next power of two
// past idx, capped at the line count. The new slots hold no line. It
// stays out of line: a cell grows the arrays a few times and then
// never again, so its body must not weigh on Access or Insert.
//
//go:noinline
func (c *DirectMapped) grow(idx uint64) {
	n := min(max(2*uint64(len(c.tags)), 64, 1<<bits.Len64(idx)), c.setMask+1)
	words := (n + 63) / 64
	c.tags = extend(c.tags, n)
	c.valid = extend(c.valid, words)
	c.dirty = extend(c.dirty, words)
}

// extend returns a copy of s lengthened to n with zeros. Its array is
// exactly n long: append, doubling a large array, allocates about 22%
// more than that.
func extend(s []uint64, n uint64) []uint64 {
	t := make([]uint64, n)
	copy(t, s)
	return t
}

var _ Cache = (*DirectMapped)(nil)
