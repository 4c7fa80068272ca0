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
// way only takes the dirty bit, and any other walk starts at way 1,
// shifts each key it passes down one way and writes the line's key to
// the front. A caller can split an Access into its halves, HitMRU (the
// MRU way alone, small enough to inline) and AccessPastMRU (the walk
// from way 1); Access, Insert and AccessPastMRU share walk. A hit
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
// Invalidate search this way; Access and Insert use walk.
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

// mru reports whether lineAddr is in its set's most recently used way,
// ORing d into its key when it is.
func (c *SetAssoc) mru(lineAddr, d uint64) bool {
	i := int(lineAddr&c.setMask) * c.ways
	k := c.keys[i]
	if k&^1 != lineKey(lineAddr) {
		return false
	}
	c.keys[i] = k | d
	return true
}

// walkKind is the entry point a walk serves. walk does its callers'
// counting so that Access, Insert and AccessPastMRU are each one call
// into it. The form that counted in Access and AccessPastMRU around a
// walk taking a from-MRU bool read sparse-gather wall_s 2.6% slower
// (EXPERIMENTS.md, "Simulator speed: the scalar front").
type walkKind uint8

const (
	insertWalk  walkKind = iota // Insert: the MRU way first; counts no access
	accessWalk                  // Access: the MRU way first; counts the access
	pastMRUWalk                 // AccessPastMRU: from way 1; counts the access
)

// walk makes lineAddr the most recently used line of its set in one
// walk, ORing d into its key. Unless the caller has already compared
// the MRU way (pastMRUWalk), a line there only takes the dirty bit
// (mru). Otherwise each key is shifted down one way while the set is
// searched from way 1, and the walk stops at the line (a hit), at the
// first empty way (a miss into free room) or past the last way (a miss
// through a full set); the line's key is then written to the front.
// walk reports whether the line was resident, and on a miss returns the
// line shifted out of the last way of a full set, counting its
// eviction. Access and AccessPastMRU also count the access and its hit
// or miss; Insert counts neither.
func (c *SetAssoc) walk(lineAddr, d uint64, kind walkKind) (hit bool, ev Line) {
	if kind != pastMRUWalk && c.mru(lineAddr, d) {
		c.count(kind, true)
		return true, Line{}
	}
	base := int(lineAddr&c.setMask) * c.ways
	set := c.keys[base : base+c.ways]
	key := lineKey(lineAddr)
	prev := set[0]
	for w := 1; w < len(set); w++ {
		k := set[w]
		set[w] = prev
		if k&^1 == key {
			set[0] = k | d
			c.count(kind, true)
			return true, Line{}
		}
		if k == 0 {
			set[0] = key | d
			c.count(kind, false)
			return false, Line{}
		}
		prev = k
	}
	set[0] = key | d
	c.count(kind, false)
	return false, c.evicted(prev)
}

// count counts one access and its hit or miss, unless the walk serves
// Insert.
func (c *SetAssoc) count(kind walkKind, hit bool) {
	if kind == insertWalk {
		return
	}
	c.stats.Accesses++
	if hit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
}

// bit is b as a key's dirty bit.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evicted is the Line of the key a full set's walk shifted out of its
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

// Access implements Cache. It is HitMRU and then, when the line is not
// in the MRU way, AccessPastMRU, made in one walk.
func (c *SetAssoc) Access(lineAddr uint64, write bool) (bool, Line) {
	return c.walk(lineAddr, bit(write), accessWalk)
}

// HitMRU is the first half of Access: when lineAddr is in its set's
// most recently used way it counts the access and the hit, marks the
// line dirty on a write and reports true. Otherwise it changes nothing
// and reports false, and AccessPastMRU must finish the access. It is
// small enough to inline into a caller's loop.
func (c *SetAssoc) HitMRU(lineAddr uint64, write bool) bool {
	if !c.mru(lineAddr, bit(write)) {
		return false
	}
	c.stats.Accesses++
	c.stats.Hits++
	return true
}

// AccessPastMRU is the second half of Access, for a line HitMRU did not
// find in the MRU way: it walks the set from way 1 and counts the
// access. Called for a line in the MRU way, it would leave the line
// twice in its set; nothing checks that at run time, but the
// differential tests' layout check rejects a set holding a line twice.
func (c *SetAssoc) AccessPastMRU(lineAddr uint64, write bool) (bool, Line) {
	return c.walk(lineAddr, bit(write), pastMRUWalk)
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
	_, ev := c.walk(lineAddr, bit(dirty), insertWalk)
	return ev
}

var _ Cache = (*SetAssoc)(nil)
