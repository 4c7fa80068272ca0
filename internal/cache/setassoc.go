package cache

import "fmt"

// SetAssoc is a set-associative cache with true-LRU replacement,
// implemented with per-line timestamps (a hit only writes one counter,
// keeping the simulator's hot path free of shuffling).
//
// Each way is a key and an age in two parallel slices. A key is
// (line+1)<<1 | dirty, and 0 marks an empty way, so a lookup scans
// only the set's keys. A way's age is 0 exactly when it is empty and
// otherwise the clock value of its last use, unique within the cache;
// the first way of minimum age is therefore the first empty way if
// there is one and the least recently used way if not, which is the
// victim a fill takes. The encoding is exact for line addresses below
// 2^62, which covers every address LineAddr returns.
type SetAssoc struct {
	ways    int
	setMask uint64
	keys    []uint64 // sets*ways
	age     []uint64 // sets*ways; LRU timestamps
	clock   uint64
	stats   Stats
}

// NewSetAssoc builds a set-associative cache of the given capacity in
// bytes with the given associativity. Capacity must be a multiple of
// ways*LineSize and the resulting set count must be a power of two.
func NewSetAssoc(name string, capacityBytes int64, ways int) *SetAssoc {
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
	return &SetAssoc{
		ways:    ways,
		setMask: uint64(sets - 1),
		keys:    make([]uint64, lines),
		age:     make([]uint64, lines),
	}
}

// lineKey is the key a resident clean copy of lineAddr holds.
func lineKey(lineAddr uint64) uint64 { return (lineAddr + 1) << 1 }

// Stats returns the accumulated statistics.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	clear(c.keys)
	clear(c.age)
	c.clock = 0
	c.stats = Stats{}
}

// find returns the index of lineAddr's set's first way, and the index
// of the way holding lineAddr, or -1 when the line is absent.
func (c *SetAssoc) find(lineAddr uint64) (base, i int) {
	base = int(lineAddr&c.setMask) * c.ways
	want := lineKey(lineAddr)
	for w, k := range c.keys[base : base+c.ways] {
		if k&^1 == want {
			return base, base + w
		}
	}
	return base, -1
}

// Access implements Cache.
func (c *SetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	base, i := c.find(lineAddr)
	if i < 0 {
		c.stats.Misses++
		return false, c.fill(base, lineAddr, write)
	}
	c.stats.Hits++
	c.clock++
	c.age[i] = c.clock
	if write {
		c.keys[i] |= 1
	}
	return true, Line{}
}

// Probe implements Cache.
func (c *SetAssoc) Probe(lineAddr uint64) bool {
	_, i := c.find(lineAddr)
	return i >= 0
}

// Invalidate implements Cache.
func (c *SetAssoc) Invalidate(lineAddr uint64) (bool, bool) {
	_, i := c.find(lineAddr)
	if i < 0 {
		return false, false
	}
	dirty := c.keys[i]&1 != 0
	c.keys[i] = 0
	c.age[i] = 0
	return true, dirty
}

// Insert implements Cache.
func (c *SetAssoc) Insert(lineAddr uint64, dirty bool) Line {
	base, i := c.find(lineAddr)
	if i < 0 {
		return c.fill(base, lineAddr, dirty)
	}
	// Already present: refresh state instead of duplicating.
	if dirty {
		c.keys[i] |= 1
	}
	c.clock++
	c.age[i] = c.clock
	return Line{}
}

// fill installs a line in the first way of minimum age: the first
// empty way, or the LRU way when the set is full.
func (c *SetAssoc) fill(base int, lineAddr uint64, dirty bool) Line {
	ages := c.age[base : base+c.ways]
	victim, oldest := 0, ages[0]
	for w, a := range ages {
		if a < oldest {
			victim, oldest = w, a
		}
	}
	i := base + victim
	var ev Line
	if k := c.keys[i]; k != 0 {
		ev = Line{Addr: k>>1 - 1, Dirty: k&1 != 0, Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	c.clock++
	key := lineKey(lineAddr)
	if dirty {
		key |= 1
	}
	c.keys[i] = key
	c.age[i] = c.clock
	return ev
}

var _ Cache = (*SetAssoc)(nil)
