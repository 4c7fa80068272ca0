package cache

import "fmt"

// DirectMapped is a direct-mapped cache. The MCDRAM cache mode on
// Knights Landing is direct-mapped with the tags stored in MCDRAM
// itself (Section 2.2 of the paper), which is why its conflict misses
// matter for the cache-vs-hybrid comparison the paper reports.
//
// Valid and dirty are bitsets, one bit per line, so Reset clears an
// eighth of the bytes a flag per line would take; a tag counts only
// while its valid bit is set.
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
	words := (lines + 63) / 64
	return &DirectMapped{
		setMask: uint64(lines - 1),
		tags:    make([]uint64, lines),
		valid:   make([]uint64, words),
		dirty:   make([]uint64, words),
	}
}

// Stats returns the accumulated statistics.
func (c *DirectMapped) Stats() *Stats { return &c.stats }

// Reset clears contents and statistics.
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
	return idx, word, bit, c.valid[word]&bit != 0 && c.tags[idx] == lineAddr
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

var _ Cache = (*DirectMapped)(nil)
