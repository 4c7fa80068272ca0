package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineAddr(t *testing.T) {
	cases := []struct {
		byteAddr uint64
		want     uint64
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{65, 1},
		{128, 2},
		{1 << 20, 1 << 14},
	}
	for _, c := range cases {
		if got := LineAddr(c.byteAddr); got != c.want {
			t.Errorf("LineAddr(%d) = %d, want %d", c.byteAddr, got, c.want)
		}
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 || s.HitRate() != 0 {
		t.Fatal("empty stats should have zero rates")
	}
	s = Stats{Accesses: 10, Hits: 7, Misses: 3}
	if got := s.MissRate(); got != 0.3 {
		t.Errorf("MissRate = %v, want 0.3", got)
	}
	if got := s.HitRate(); got != 0.7 {
		t.Errorf("HitRate = %v, want 0.7", got)
	}
}

func TestSetAssocBasicHitMiss(t *testing.T) {
	c := NewSetAssoc("l2", 8*LineSize, 2) // 4 sets, 2 ways
	hit, _ := c.Access(0, false)
	if hit {
		t.Fatal("cold access should miss")
	}
	hit, _ = c.Access(0, false)
	if !hit {
		t.Fatal("second access should hit")
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", *st)
	}
}

func TestSetAssocLRUOrder(t *testing.T) {
	// 1 set, 2 ways: lines mapping to set 0 are multiples of 1.
	c := NewSetAssoc("t", 2*LineSize, 2)
	c.Access(10, false)
	c.Access(20, false)
	// Touch 10 so 20 becomes LRU.
	if hit, _ := c.Access(10, false); !hit {
		t.Fatal("10 should hit")
	}
	// Insert 30: must evict 20 (LRU), not 10.
	_, ev := c.Access(30, false)
	if !ev.Valid || ev.Addr != 20 {
		t.Fatalf("evicted %+v, want addr 20", ev)
	}
	if !c.Probe(10) || c.Probe(20) || !c.Probe(30) {
		t.Fatal("LRU replacement produced wrong contents")
	}
}

func TestSetAssocDirtyWriteback(t *testing.T) {
	c := NewSetAssoc("t", 2*LineSize, 2) // 1 set 2 ways
	c.Access(1, true)                    // dirty
	c.Access(2, false)
	c.Access(3, false) // evicts 1, dirty
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", st.Writebacks)
	}
	// Evicting clean line 2 must not add writebacks.
	c.Access(4, false)
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want still 1", c.Stats().Writebacks)
	}
}

func TestSetAssocWriteHitMarksDirty(t *testing.T) {
	c := NewSetAssoc("t", 2*LineSize, 2)
	c.Access(1, false) // clean fill
	c.Access(1, true)  // write hit: now dirty
	c.Access(2, false)
	_, ev := c.Access(3, false) // evicts 1
	if !ev.Valid || ev.Addr != 1 || !ev.Dirty {
		t.Fatalf("evicted %+v, want dirty line 1", ev)
	}
}

func TestSetAssocInvalidate(t *testing.T) {
	c := NewSetAssoc("t", 4*LineSize, 2)
	c.Access(5, true)
	found, dirty := c.Invalidate(5)
	if !found || !dirty {
		t.Fatalf("Invalidate(5) = %v,%v want true,true", found, dirty)
	}
	if c.Probe(5) {
		t.Fatal("line should be gone after invalidate")
	}
	found, _ = c.Invalidate(5)
	if found {
		t.Fatal("second invalidate should report not found")
	}
}

func TestSetAssocInsertNoAccessCount(t *testing.T) {
	c := NewSetAssoc("t", 4*LineSize, 2)
	c.Insert(9, true)
	if c.Stats().Accesses != 0 {
		t.Fatal("Insert must not count as an access")
	}
	if !c.Probe(9) {
		t.Fatal("inserted line should be present")
	}
	// Inserting the same line again must not duplicate it.
	c.Insert(9, false)
	hit, _ := c.Access(9, false)
	if !hit {
		t.Fatal("line should hit after insert")
	}
}

func TestSetAssocSetIsolation(t *testing.T) {
	c := NewSetAssoc("t", 8*LineSize, 2) // 4 sets
	// Lines 0,4,8 map to set 0; line 1 maps to set 1.
	c.Access(0, false)
	c.Access(1, false)
	c.Access(4, false)
	c.Access(8, false) // evicts 0 from set 0
	if c.Probe(0) {
		t.Fatal("line 0 should be evicted")
	}
	if !c.Probe(1) {
		t.Fatal("line 1 in another set must survive")
	}
}

func TestSetAssocPanicsOnBadGeometry(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero ways", func() { NewSetAssoc("x", 1024, 0) })
	mustPanic("non-multiple", func() { NewSetAssoc("x", 3*LineSize, 2) })
	mustPanic("non-pow2 sets", func() { NewSetAssoc("x", 6*LineSize, 2) })
}

func TestDirectMappedBasic(t *testing.T) {
	c := NewDirectMapped("mcdram", 4*LineSize)
	hit, _ := c.Access(0, false)
	if hit {
		t.Fatal("cold miss expected")
	}
	hit, _ = c.Access(0, false)
	if !hit {
		t.Fatal("hit expected")
	}
	// 4 maps to the same index as 0 in a 4-line DM cache.
	_, ev := c.Access(4, false)
	if !ev.Valid || ev.Addr != 0 {
		t.Fatalf("conflict eviction wrong: %+v", ev)
	}
	if c.Probe(0) {
		t.Fatal("0 should be displaced by 4")
	}
}

func TestDirectMappedConflictThrashing(t *testing.T) {
	// Two lines with the same index thrash in a DM cache but coexist in
	// a 2-way cache — the behavioural difference behind the paper's
	// cache-mode "set conflict" discussion.
	dm := NewDirectMapped("dm", 4*LineSize)
	sa := NewSetAssoc("sa", 4*LineSize, 2)
	for i := 0; i < 10; i++ {
		dm.Access(0, false)
		dm.Access(4, false)
		sa.Access(0, false)
		sa.Access(8, false) // same set in 2-set 2-way cache
	}
	if dm.Stats().Hits != 0 {
		t.Fatalf("DM thrashing should have 0 hits, got %d", dm.Stats().Hits)
	}
	if sa.Stats().Hits != 18 {
		t.Fatalf("2-way should hit 18 of 20, got %d", sa.Stats().Hits)
	}
}

func TestDirectMappedInvalidateInsert(t *testing.T) {
	c := NewDirectMapped("t", 4*LineSize)
	c.Insert(2, true)
	if c.Stats().Accesses != 0 {
		t.Fatal("insert must not count accesses")
	}
	found, dirty := c.Invalidate(2)
	if !found || !dirty {
		t.Fatalf("Invalidate = %v,%v", found, dirty)
	}
	c.Insert(3, false)
	c.Insert(3, true) // refresh dirties
	found, dirty = c.Invalidate(3)
	if !found || !dirty {
		t.Fatal("re-insert should have merged dirty bit")
	}
}

func TestDirectMappedPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-pow2 line count")
		}
	}()
	NewDirectMapped("x", 3*LineSize)
}

func TestReset(t *testing.T) {
	for _, c := range []Cache{
		NewSetAssoc("a", 8*LineSize, 2),
		NewDirectMapped("b", 8*LineSize),
	} {
		c.Access(1, true)
		c.Access(2, false)
		c.Reset()
		if c.Stats().Accesses != 0 {
			t.Fatal("reset should clear stats")
		}
		if c.Probe(1) || c.Probe(2) {
			t.Fatal("reset should clear contents")
		}
	}
}

// Property: a cache never holds more lines than its capacity, and a
// working set that fits entirely gets 100% hits after the first pass.
func TestPropertyFittingWorkingSetAllHits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ways := []int{1, 2, 4, 8}[rng.Intn(4)]
		setsLog := 2 + rng.Intn(4)
		capBytes := int64((1<<setsLog)*ways) * LineSize
		var c Cache
		if ways == 1 && rng.Intn(2) == 0 {
			c = NewDirectMapped("p", capBytes)
		} else {
			c = NewSetAssoc("p", capBytes, ways)
		}
		// Working set: one line per set per way — guaranteed to fit.
		lines := make([]uint64, 0)
		sets := uint64(1 << setsLog)
		for s := uint64(0); s < sets; s++ {
			for w := 0; w < ways; w++ {
				lines = append(lines, s+uint64(w)*sets*8)
			}
		}
		for _, l := range lines {
			c.Access(l, false)
		}
		before := c.Stats().Hits
		for pass := 0; pass < 3; pass++ {
			for _, l := range lines {
				if hit, _ := c.Access(l, false); !hit {
					return false
				}
			}
		}
		return c.Stats().Hits == before+uint64(3*len(lines))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: accesses = hits + misses, and evictions never exceed misses.
func TestPropertyStatsConsistency(t *testing.T) {
	f := func(seed int64, nAccess uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc("p", 64*LineSize, 4)
		for i := 0; i < int(nAccess); i++ {
			c.Access(uint64(rng.Intn(256)), rng.Intn(3) == 0)
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses &&
			s.Evictions <= s.Misses &&
			s.Writebacks <= s.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Probe never changes behaviour (no stats, no replacement state
// visible through subsequent evictions with a deterministic pattern).
func TestPropertyProbeIsPure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := NewSetAssoc("a", 16*LineSize, 2)
		c2 := NewSetAssoc("b", 16*LineSize, 2)
		for i := 0; i < 200; i++ {
			l := uint64(rng.Intn(64))
			w := rng.Intn(2) == 0
			c1.Access(l, w)
			c2.Probe(uint64(rng.Intn(64))) // extra probes on c2
			c2.Access(l, w)
		}
		return *c1.Stats() == *c2.Stats()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetAssocAccess(b *testing.B) {
	c := NewSetAssoc("l3", 6*1024*1024/4, 12) // scaled Broadwell L3
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}

// BenchmarkDirectMappedAccess touches its addresses once before the
// timer starts, so the arrays have grown over every slot it uses and
// the loop times lookups, not growth.
func BenchmarkDirectMappedAccess(b *testing.B) {
	c := NewDirectMapped("mc", 256*1024*1024)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 24))
	}
	for _, a := range addrs {
		c.Access(a, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0)
	}
}

// BenchmarkDirectMappedReset fills every slot before the timer starts,
// so Reset clears the full arrays of KNL's simulated MCDRAM cache, the
// most a cell can leave it.
func BenchmarkDirectMappedReset(b *testing.B) {
	const capBytes = 256 * 1024 * 1024 // KNL's simulated MCDRAM cache
	c := NewDirectMapped("mc", capBytes)
	for line := uint64(0); line < capBytes/LineSize; line++ {
		c.Access(line, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
	}
}
