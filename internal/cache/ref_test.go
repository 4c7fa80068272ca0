package cache

import "fmt"

// refSetAssoc and refDirectMapped are the original, straightforward
// layouts of SetAssoc and DirectMapped (one slice per field: tags,
// valid, dirty, age). They are the behaviour contract for the packed
// layouts: the differential tests and fuzz targets drive both through
// the same operation stream and require every return value and Stats
// count to match.
type refSetAssoc struct {
	ways    int
	setMask uint64
	tags    []uint64 // sets*ways
	valid   []bool
	dirty   []bool
	age     []uint64 // LRU timestamps
	clock   uint64
	stats   Stats
}

func newRefSetAssoc(name string, capacityBytes int64, ways int) *refSetAssoc {
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", name, ways))
	}
	lines := capacityBytes / LineSize
	if lines <= 0 || lines%int64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %d not a multiple of ways*linesize", name, capacityBytes))
	}
	sets := int(lines) / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	return &refSetAssoc{
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		valid:   make([]bool, sets*ways),
		dirty:   make([]bool, sets*ways),
		age:     make([]uint64, sets*ways),
	}
}

func (c *refSetAssoc) Stats() *Stats { return &c.stats }

func (c *refSetAssoc) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
		c.age[i] = 0
	}
	c.clock = 0
	c.stats = Stats{}
}

func (c *refSetAssoc) setBase(lineAddr uint64) int {
	return int(lineAddr&c.setMask) * c.ways
}

func (c *refSetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	base := c.setBase(lineAddr)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			c.stats.Hits++
			c.clock++
			c.age[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return true, Line{}
		}
	}
	c.stats.Misses++
	return false, c.fill(base, lineAddr, write)
}

func (c *refSetAssoc) Probe(lineAddr uint64) bool {
	base := c.setBase(lineAddr)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			return true
		}
	}
	return false
}

func (c *refSetAssoc) Invalidate(lineAddr uint64) (bool, bool) {
	base := c.setBase(lineAddr)
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			d := c.dirty[i]
			c.valid[i] = false
			c.dirty[i] = false
			c.age[i] = 0
			return true, d
		}
	}
	return false, false
}

func (c *refSetAssoc) Insert(lineAddr uint64, dirty bool) Line {
	base := c.setBase(lineAddr)
	// If already present, refresh state instead of duplicating.
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == lineAddr && c.valid[i] {
			c.dirty[i] = c.dirty[i] || dirty
			c.clock++
			c.age[i] = c.clock
			return Line{}
		}
	}
	return c.fill(base, lineAddr, dirty)
}

// fill installs a line, evicting the LRU way if the set is full.
func (c *refSetAssoc) fill(base int, lineAddr uint64, dirty bool) Line {
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		if !c.valid[i] {
			victim = i
			oldest = 0
			break
		}
		if c.age[i] < oldest {
			oldest, victim = c.age[i], i
		}
	}
	var ev Line
	if c.valid[victim] {
		ev = Line{Addr: c.tags[victim], Dirty: c.dirty[victim], Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.clock++
	c.tags[victim] = lineAddr
	c.valid[victim] = true
	c.dirty[victim] = dirty
	c.age[victim] = c.clock
	return ev
}

type refDirectMapped struct {
	setMask uint64
	tags    []uint64
	valid   []bool
	dirty   []bool
	stats   Stats
}

func newRefDirectMapped(name string, capacityBytes int64) *refDirectMapped {
	lines := capacityBytes / LineSize
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("cache %s: line count %d not a power of two", name, lines))
	}
	return &refDirectMapped{
		setMask: uint64(lines - 1),
		tags:    make([]uint64, lines),
		valid:   make([]bool, lines),
		dirty:   make([]bool, lines),
	}
}

func (c *refDirectMapped) Stats() *Stats { return &c.stats }

func (c *refDirectMapped) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
	c.stats = Stats{}
}

func (c *refDirectMapped) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	idx := lineAddr & c.setMask
	if c.valid[idx] && c.tags[idx] == lineAddr {
		c.stats.Hits++
		if write {
			c.dirty[idx] = true
		}
		return true, Line{}
	}
	c.stats.Misses++
	ev := c.fill(idx, lineAddr, write)
	return false, ev
}

func (c *refDirectMapped) Probe(lineAddr uint64) bool {
	idx := lineAddr & c.setMask
	return c.valid[idx] && c.tags[idx] == lineAddr
}

func (c *refDirectMapped) Invalidate(lineAddr uint64) (bool, bool) {
	idx := lineAddr & c.setMask
	if c.valid[idx] && c.tags[idx] == lineAddr {
		d := c.dirty[idx]
		c.valid[idx] = false
		c.dirty[idx] = false
		return true, d
	}
	return false, false
}

func (c *refDirectMapped) Insert(lineAddr uint64, dirty bool) Line {
	idx := lineAddr & c.setMask
	if c.valid[idx] && c.tags[idx] == lineAddr {
		c.dirty[idx] = c.dirty[idx] || dirty
		return Line{}
	}
	return c.fill(idx, lineAddr, dirty)
}

func (c *refDirectMapped) fill(idx, lineAddr uint64, dirty bool) Line {
	var ev Line
	if c.valid[idx] {
		ev = Line{Addr: c.tags[idx], Dirty: c.dirty[idx], Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tags[idx] = lineAddr
	c.valid[idx] = true
	c.dirty[idx] = dirty
	return ev
}

var (
	_ Cache = (*refSetAssoc)(nil)
	_ Cache = (*refDirectMapped)(nil)
)
