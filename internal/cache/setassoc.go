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
// empty way. Access and Insert walk the set once: a line in the MRU
// way only takes the dirty bit, and any other walk shifts each key it
// passes down one way and writes the line's key to the front. A hit
// stops at the line; a miss stops at the first empty way, or shifts the
// LRU line out of the last way of a full set as the victim. An
// invalidation closes the gap and leaves an empty way at the end. The
// encoding is exact for line addresses below 2^62, which covers every
// address LineAddr returns.
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
// lineAddr within it, or -1 when the line is absent. Only Probe and
// Invalidate search this way; Access and Insert use promote.
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

// promote makes lineAddr the most recently used line of its set in one
// walk, ORing dirty into its key. The MRU way is compared first, and a
// match there moves nothing. Otherwise each key is shifted down one way
// while the set is searched, and the walk stops at the line (a hit), at
// the first empty way (a miss into free room) or past the last way (a
// miss through a full set); the line's key is then written to the
// front. promote reports whether the line was resident, and on a miss
// returns the key shifted out of the last way: the LRU line of a full
// set, or 0.
func (c *SetAssoc) promote(lineAddr uint64, dirty bool) (hit bool, victim uint64) {
	base := int(lineAddr&c.setMask) * c.ways
	set := c.keys[base : base+c.ways]
	key := lineKey(lineAddr)
	var d uint64
	if dirty {
		d = 1
	}
	prev := set[0]
	if prev&^1 == key {
		set[0] = prev | d
		return true, 0
	}
	for w := 1; w < len(set); w++ {
		k := set[w]
		set[w] = prev
		if k&^1 == key {
			set[0] = k | d
			return true, 0
		}
		if k == 0 {
			set[0] = key | d
			return false, 0
		}
		prev = k
	}
	set[0] = key | d
	return false, prev
}

// evicted is the Line a fill returns for the key it shifted out of the
// last way, counting the eviction and its writeback; 0 is no victim.
func (c *SetAssoc) evicted(k uint64) Line {
	if k == 0 {
		return Line{}
	}
	ev := Line{Addr: k>>1 - 1, Dirty: k&1 != 0, Valid: true}
	c.stats.Evictions++
	if ev.Dirty {
		c.stats.Writebacks++
	}
	return ev
}

// Access implements Cache.
func (c *SetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	c.stats.Accesses++
	hit, victim := c.promote(lineAddr, write)
	if hit {
		c.stats.Hits++
		return true, Line{}
	}
	c.stats.Misses++
	return false, c.evicted(victim)
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

// Insert implements Cache. A resident line is refreshed, not
// duplicated, and a hit returns no victim.
func (c *SetAssoc) Insert(lineAddr uint64, dirty bool) Line {
	_, victim := c.promote(lineAddr, dirty)
	return c.evicted(victim)
}

var _ Cache = (*SetAssoc)(nil)
