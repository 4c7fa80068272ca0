package cache

import "fmt"

// SetAssoc is a set-associative cache with true-LRU replacement,
// implemented by keeping each set in recency order (an LRU stack,
// Mattson et al. 1970), so a fill's victim is always the set's last
// way.
//
// Each way is a key, (line+1)<<1 | dirty, and 0 marks an empty way.
// Within a set the valid keys come first, most recently used first,
// and the empty ways after them; a lookup therefore stops at the first
// empty way. A hit moves its key to the front; a fill shifts the set
// down one way, dropping the last way (empty, or the LRU line of a
// full set), and installs at the front; an invalidation closes the gap
// and leaves an empty way at the end. The encoding is exact for line
// addresses below 2^62, which covers every address LineAddr returns.
type SetAssoc struct {
	ways    int
	setMask uint64
	keys    []uint64 // sets*ways; each set most recently used first
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
	}
}

// lineKey is the key a resident clean copy of lineAddr holds.
func lineKey(lineAddr uint64) uint64 { return (lineAddr + 1) << 1 }

// Stats returns the accumulated statistics.
func (c *SetAssoc) Stats() *Stats { return &c.stats }

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	clear(c.keys)
	c.stats = Stats{}
}

// find returns lineAddr's set and the index of the way holding
// lineAddr within it, or -1 when the line is absent.
func (c *SetAssoc) find(lineAddr uint64) (set []uint64, i int) {
	base := int(lineAddr&c.setMask) * c.ways
	set = c.keys[base : base+c.ways]
	want := lineKey(lineAddr)
	for w, k := range set {
		if k&^1 == want {
			return set, w
		}
		if k == 0 {
			break
		}
	}
	return set, -1
}

// touch moves the key at set[i] to the front, setting its dirty bit
// when dirty is true.
func touch(set []uint64, i int, dirty bool) {
	k := set[i]
	if dirty {
		k |= 1
	}
	copy(set[1:i+1], set[:i])
	set[0] = k
}

// Access implements Cache.
func (c *SetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	set, i := c.find(lineAddr)
	if i < 0 {
		c.stats.Misses++
		return false, c.fill(set, lineAddr, write)
	}
	c.stats.Hits++
	touch(set, i, write)
	return true, Line{}
}

// Probe implements Cache.
func (c *SetAssoc) Probe(lineAddr uint64) bool {
	_, i := c.find(lineAddr)
	return i >= 0
}

// Invalidate implements Cache.
func (c *SetAssoc) Invalidate(lineAddr uint64) (bool, bool) {
	set, i := c.find(lineAddr)
	if i < 0 {
		return false, false
	}
	dirty := set[i]&1 != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = 0
	return true, dirty
}

// Insert implements Cache.
func (c *SetAssoc) Insert(lineAddr uint64, dirty bool) Line {
	set, i := c.find(lineAddr)
	if i < 0 {
		return c.fill(set, lineAddr, dirty)
	}
	// Already present: refresh state instead of duplicating.
	touch(set, i, dirty)
	return Line{}
}

// fill installs a line at the front of set, evicting the last way when
// the set is full.
func (c *SetAssoc) fill(set []uint64, lineAddr uint64, dirty bool) Line {
	var ev Line
	if k := set[len(set)-1]; k != 0 {
		ev = Line{Addr: k>>1 - 1, Dirty: k&1 != 0, Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	copy(set[1:], set)
	key := lineKey(lineAddr)
	if dirty {
		key |= 1
	}
	set[0] = key
	return ev
}

var _ Cache = (*SetAssoc)(nil)
