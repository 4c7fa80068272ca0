package memsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/cache"
)

// testConfig returns a small hierarchy for unit tests: 1KB L1, 4KB L2,
// 16KB L3, 64KB eDRAM (when enabled), generous links.
func testConfig(mode Mode) Config {
	cfg := Config{
		Name: "test",
		Mode: mode,
		L1:   CacheCfg{Size: 1 << 10, Ways: 2},
		L2:   CacheCfg{Size: 4 << 10, Ways: 4},
		Links: [NumSources]LinkParams{
			SrcL2:     {BWGBs: 200, LatNS: 4},
			SrcL3:     {BWGBs: 100, LatNS: 12},
			SrcEDRAM:  {BWGBs: 50, LatNS: 40},
			SrcMCDRAM: {BWGBs: 400, LatNS: 150},
			SrcDDR:    {BWGBs: 20, LatNS: 90},
		},
		PeakDPGFlops:  100,
		PeakSPGFlops:  200,
		Cores:         4,
		MaxThreads:    8,
		MSHRs:         64,
		SplitPenalty:  6,
		MLPRampFactor: 6,
		Scale:         1,
	}
	switch mode {
	case ModeDDR, ModeEDRAM, ModeEDRAMMemSide:
		cfg.L3 = CacheCfg{Size: 16 << 10, Ways: 8}
		if mode != ModeDDR {
			cfg.EDRAM = CacheCfg{Size: 64 << 10, Ways: 16}
		}
	case ModeCache, ModeFlat, ModeHybrid:
		cfg.MCDRAMBytes = 64 << 10
	}
	return cfg
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeDDR: "ddr", ModeEDRAM: "edram", ModeCache: "cache",
		ModeFlat: "flat", ModeHybrid: "hybrid",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestSourceString(t *testing.T) {
	names := []string{"L1", "L2", "L3", "eDRAM", "MCDRAM", "DDR"}
	for s := SrcL1; s < NumSources; s++ {
		if s.String() != names[s] {
			t.Errorf("Source(%d) = %q, want %q", int(s), s.String(), names[s])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(ModeEDRAM)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("missing name accepted")
	}
	bad = good
	bad.L2.Size = 0
	if bad.Validate() == nil {
		t.Error("missing L2 accepted")
	}
	bad = good
	bad.EDRAM.Size = 0
	if bad.Validate() == nil {
		t.Error("eDRAM mode without eDRAM accepted")
	}
	bad = testConfig(ModeCache)
	bad.MCDRAMBytes = 0
	if bad.Validate() == nil {
		t.Error("MCDRAM mode without capacity accepted")
	}
	bad = good
	bad.Links[SrcDDR].BWGBs = 0
	if bad.Validate() == nil {
		t.Error("missing DDR bandwidth accepted")
	}
	bad = good
	bad.Scale = 0
	if bad.Validate() == nil {
		t.Error("zero scale accepted")
	}
	bad = good
	bad.PeakDPGFlops = 0
	if bad.Validate() == nil {
		t.Error("zero peak accepted")
	}
	bad = good
	bad.Mode = Mode(42)
	if bad.Validate() == nil {
		t.Error("unknown mode accepted")
	}
}

func TestAllocPrefersMCDRAMThenSpills(t *testing.T) {
	s := MustNewSim(testConfig(ModeFlat)) // 64KB flat MCDRAM
	a := s.Alloc("a", 32<<10)
	if !a.InMCDRAM() {
		t.Fatal("first allocation should land in MCDRAM")
	}
	b := s.Alloc("b", 32<<10)
	if !b.InMCDRAM() {
		t.Fatal("second allocation still fits MCDRAM")
	}
	c := s.Alloc("c", 8<<10)
	if c.InMCDRAM() {
		t.Fatal("third allocation must spill to DDR")
	}
	if !s.Traffic().SplitFlat {
		t.Fatal("spill must set the split flag")
	}
	if got := s.Footprint(); got != 72<<10 {
		t.Fatalf("footprint = %d, want %d", got, 72<<10)
	}
}

func TestAllocDDRModeNeverSplits(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	s.Alloc("a", 1<<20)
	s.Alloc("b", 1<<20)
	if s.Traffic().SplitFlat {
		t.Fatal("DDR mode cannot split")
	}
}

func TestAllocPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNewSim(testConfig(ModeDDR)).Alloc("x", 0)
}

func TestHybridSplitsCapacity(t *testing.T) {
	s := MustNewSim(testConfig(ModeHybrid)) // 64KB: 32 flat + 32 cache
	a := s.Alloc("a", 32<<10)
	if !a.InMCDRAM() {
		t.Fatal("hybrid flat half should host the allocation")
	}
	b := s.Alloc("b", 1<<10)
	if b.InMCDRAM() {
		t.Fatal("beyond half capacity must go to DDR")
	}
}

func TestStreamingMissesGoToDDR(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 1<<20) // far larger than 16KB L3
	buf.LoadLines(0, 1<<20)
	tr := s.Traffic()
	wantLines := uint64(1 << 20 / cache.LineSize)
	if tr.Lines[SrcDDR] != wantLines {
		t.Fatalf("DDR lines = %d, want %d", tr.Lines[SrcDDR], wantLines)
	}
	if tr.Bytes[SrcDDR] != 1<<20 {
		t.Fatalf("DDR bytes = %d, want %d", tr.Bytes[SrcDDR], 1<<20)
	}
}

func TestFittingWorkingSetServedOnChip(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 2<<10) // fits 4KB L2
	for pass := 0; pass < 4; pass++ {
		buf.LoadLines(0, 2<<10)
	}
	tr := s.Traffic()
	// Only the cold pass should reach DDR.
	if tr.Bytes[SrcDDR] != 2<<10 {
		t.Fatalf("DDR bytes = %d, want %d (cold only)", tr.Bytes[SrcDDR], 2<<10)
	}
	if tr.Bytes[SrcL1]+tr.Bytes[SrcL2] == 0 {
		t.Fatal("warm passes should be served on-chip")
	}
}

func TestEDRAMCapturesL3Victims(t *testing.T) {
	cfg := testConfig(ModeEDRAM)
	s := MustNewSim(cfg)
	// Working set: 32KB — exceeds 16KB L3, fits 64KB eDRAM.
	buf := s.Alloc("x", 32<<10)
	buf.LoadLines(0, 32<<10) // cold: all from DDR
	cold := s.Traffic()
	if cold.Bytes[SrcEDRAM] != 0 {
		t.Fatal("no eDRAM hits expected on the cold pass")
	}
	s.ResetTraffic()
	for pass := 0; pass < 3; pass++ {
		buf.LoadLines(0, 32<<10)
	}
	warm := s.Traffic()
	if warm.Bytes[SrcEDRAM] == 0 {
		t.Fatal("warm passes should hit the eDRAM victim cache")
	}
	if warm.Bytes[SrcDDR] > warm.Bytes[SrcEDRAM]/4 {
		t.Fatalf("most warm traffic should be eDRAM: eDRAM=%d DDR=%d",
			warm.Bytes[SrcEDRAM], warm.Bytes[SrcDDR])
	}
}

func TestEDRAMOffGoesToDDR(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 32<<10)
	for pass := 0; pass < 4; pass++ {
		buf.LoadLines(0, 32<<10)
	}
	tr := s.Traffic()
	if tr.Bytes[SrcEDRAM] != 0 {
		t.Fatal("eDRAM disabled must never serve")
	}
	if tr.Bytes[SrcDDR] == 0 {
		t.Fatal("expected DDR traffic")
	}
}

func TestMCDRAMCacheModeServesRepeats(t *testing.T) {
	s := MustNewSim(testConfig(ModeCache))
	// 32KB working set: exceeds 4KB L2, fits 64KB MCDRAM cache.
	buf := s.Alloc("x", 32<<10)
	buf.LoadLines(0, 32<<10)
	s.ResetTraffic()
	for pass := 0; pass < 3; pass++ {
		buf.LoadLines(0, 32<<10)
	}
	tr := s.Traffic()
	if tr.Bytes[SrcMCDRAM] == 0 {
		t.Fatal("MCDRAM cache should serve warm passes")
	}
	if tr.Bytes[SrcDDR] != 0 {
		t.Fatalf("fitting working set should not touch DDR, got %d", tr.Bytes[SrcDDR])
	}
}

func TestMCDRAMFlatResidentTraffic(t *testing.T) {
	s := MustNewSim(testConfig(ModeFlat))
	buf := s.Alloc("x", 32<<10) // resident in 64KB flat MCDRAM
	for pass := 0; pass < 2; pass++ {
		buf.LoadLines(0, 32<<10)
	}
	tr := s.Traffic()
	if tr.Bytes[SrcDDR] != 0 {
		t.Fatal("flat-resident data must not touch DDR")
	}
	if tr.Bytes[SrcMCDRAM] == 0 {
		t.Fatal("expected MCDRAM traffic")
	}
	if tr.SplitFlat {
		t.Fatal("no split expected")
	}
}

func TestWritebackAccounting(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 256<<10)
	buf.StoreLines(0, 256<<10)
	// Stream a second buffer to force the dirty lines out.
	buf2 := s.Alloc("y", 256<<10)
	buf2.LoadLines(0, 256<<10)
	tr := s.Traffic()
	if tr.WBBytes[SrcDDR] == 0 {
		t.Fatal("dirty evictions must produce DDR writebacks")
	}
	if tr.WBBytes[SrcDDR] > uint64(256<<10) {
		t.Fatalf("writebacks exceed written bytes: %d", tr.WBBytes[SrcDDR])
	}
}

func TestTouchCoalescesWithinLine(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 1<<10)
	for i := int64(0); i < 64; i += 8 {
		buf.Load(i, 8) // 8 scalar loads within one line
	}
	tr := s.Traffic()
	if tr.Accesses != 8 {
		t.Fatalf("accesses = %d, want 8", tr.Accesses)
	}
	// Exactly one line fill from memory.
	if tr.Lines[SrcDDR] != 1 {
		t.Fatalf("DDR lines = %d, want 1", tr.Lines[SrcDDR])
	}
}

func TestTouchSpanningLines(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 1<<10)
	buf.Load(60, 8) // straddles two lines
	if got := s.Traffic().Lines[SrcDDR]; got != 2 {
		t.Fatalf("straddling access should fill 2 lines, got %d", got)
	}
}

func TestResetTrafficKeepsCacheState(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 2<<10)
	buf.LoadLines(0, 2<<10)
	s.ResetTraffic()
	buf.LoadLines(0, 2<<10)
	tr := s.Traffic()
	if tr.Bytes[SrcDDR] != 0 {
		t.Fatal("warm state lost across ResetTraffic")
	}
	if tr.FootprintBytes != 2<<10 {
		t.Fatal("footprint must survive ResetTraffic")
	}
}

func TestNewSimRejectsInvalid(t *testing.T) {
	bad := testConfig(ModeDDR)
	bad.L2.Size = 0
	if _, err := NewSim(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSim should panic")
		}
	}()
	MustNewSim(bad)
}

func TestEDRAMMemSideFillsOnAccess(t *testing.T) {
	// The memory-side buffer (Skylake arrangement) populates on fills,
	// so the *second* pass hits — unlike the victim cache, which only
	// captures L3 evictions.
	cfg := testConfig(ModeEDRAMMemSide)
	cfg.L3 = CacheCfg{Size: 16 << 10, Ways: 8}
	cfg.EDRAM = CacheCfg{Size: 64 << 10, Ways: 16}
	s := MustNewSim(cfg)
	buf := s.Alloc("x", 32<<10) // > L3, fits eDRAM
	buf.LoadLines(0, 32<<10)    // cold: DDR + installs
	cold := s.Traffic()
	if cold.Bytes[SrcDDR] == 0 || cold.WBBytes[SrcEDRAM] == 0 {
		t.Fatalf("cold pass should fill from DDR and install into eDRAM: %+v", cold)
	}
	s.ResetTraffic()
	buf.LoadLines(0, 32<<10)
	warm := s.Traffic()
	if warm.Bytes[SrcDDR] != 0 {
		t.Fatalf("warm pass should be served by the memory-side buffer, DDR=%d", warm.Bytes[SrcDDR])
	}
	if warm.Bytes[SrcEDRAM] == 0 {
		t.Fatal("expected eDRAM service")
	}
}

func TestEDRAMMemSideAbsorbsWritebacks(t *testing.T) {
	cfg := testConfig(ModeEDRAMMemSide)
	cfg.L3 = CacheCfg{Size: 16 << 10, Ways: 8}
	cfg.EDRAM = CacheCfg{Size: 64 << 10, Ways: 16}
	s := MustNewSim(cfg)
	buf := s.Alloc("x", 32<<10)
	buf.StoreLines(0, 32<<10)
	evict := s.Alloc("y", 32<<10)
	evict.LoadLines(0, 32<<10) // push the dirty lines out of L3
	tr := s.Traffic()
	if tr.WBBytes[SrcEDRAM] == 0 {
		t.Fatal("memory-side buffer should absorb writebacks")
	}
}

func TestEDRAMMemSideValidation(t *testing.T) {
	cfg := testConfig(ModeEDRAMMemSide)
	cfg.EDRAM = CacheCfg{}
	if cfg.Validate() == nil {
		t.Fatal("memory-side mode without eDRAM accepted")
	}
	if ModeEDRAMMemSide.String() != "edram-ms" {
		t.Fatal("mode name")
	}
}

func BenchmarkSimStreamingAccess(b *testing.B) {
	s := MustNewSim(testConfig(ModeEDRAM))
	buf := s.Alloc("x", 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.LoadLines(0, 1<<20)
	}
}

func TestBufferBoundsChecking(t *testing.T) {
	s := MustNewSim(testConfig(ModeDDR))
	buf := s.Alloc("x", 100) // rounds to 128 bytes of lines
	buf.Load(96, 4)          // within the rounded allocation
	cases := []struct {
		name string
		fn   func()
	}{
		{"load past end", func() { buf.Load(128, 8) }},
		{"store past end", func() { buf.Store(200, 8) }},
		{"negative offset", func() { buf.Load(-8, 8) }},
		{"zero length", func() { buf.Load(0, 0) }},
		{"lines past end", func() { buf.LoadLines(64, 128) }},
		// off+n wraps negative: a check on the sum walks ~2^57 lines.
		{"length overflows", func() { buf.LoadLines(64, math.MaxInt64) }},
	}
	for _, c := range cases {
		// Each call runs under a deadline, so a check that lets the
		// access through fails the test instead of hanging it.
		panicked := make(chan bool, 1)
		go func() {
			defer func() { panicked <- recover() != nil }()
			c.fn()
		}()
		select {
		case ok := <-panicked:
			if !ok {
				t.Errorf("%s: expected panic", c.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no panic within 5s", c.name)
		}
	}
}

// MustNewSim is NewSim that panics on error, for tests.
func MustNewSim(cfg Config) *Sim {
	s, err := NewSim(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
