package platform

import (
	"testing"

	"repro/internal/memsim"
)

func TestTable3Values(t *testing.T) {
	brd := Broadwell()
	if brd.Cores != 4 || brd.FreqGHz != 3.7 || brd.DPGFlops != 236.8 {
		t.Fatalf("Broadwell compute spec wrong: %+v", brd)
	}
	if brd.DRAMGBs != 34.1 || brd.OPMGBs != 102.4 || brd.OPMBytes != 128<<20 {
		t.Fatal("Broadwell memory spec wrong")
	}
	knl := KNL()
	if knl.Cores != 64 || knl.DPGFlops != 3072 || knl.SPGFlops != 6144 {
		t.Fatalf("KNL compute spec wrong (note Table 3 SP/DP transposition): %+v", knl)
	}
	if knl.OPMBytes != 16<<30 || knl.DRAMBytes != 96<<30 || knl.OPMGBs != 490 {
		t.Fatal("KNL memory spec wrong")
	}
}

func TestTable1Modes(t *testing.T) {
	brd := Broadwell()
	if len(brd.Modes) != 2 {
		t.Fatalf("Broadwell supports on/off only, got %v", brd.Modes)
	}
	knl := KNL()
	if len(knl.Modes) != 4 {
		t.Fatalf("KNL supports ddr/cache/flat/hybrid, got %v", knl.Modes)
	}
	// eDRAM-only modes rejected on KNL and vice versa.
	if _, err := knl.Config(memsim.ModeEDRAM); err == nil {
		t.Fatal("KNL accepted eDRAM mode")
	}
	if _, err := brd.Config(memsim.ModeFlat); err == nil {
		t.Fatal("Broadwell accepted flat mode")
	}
}

func TestAllConfigsBuildSimulators(t *testing.T) {
	for _, p := range All() {
		for _, mode := range p.Modes {
			cfg := p.MustConfig(mode)
			if _, err := memsim.NewSim(cfg); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, mode, err)
			}
		}
	}
}

func TestScaling(t *testing.T) {
	p := Broadwell()
	if p.ScaledBytes(128<<20) != (128<<20)/p.Scale {
		t.Fatal("ScaledBytes wrong")
	}
	if p.ReportedBytes(p.ScaledBytes(1<<30)) != 1<<30 {
		t.Fatal("scale round trip broken")
	}
	// Scaled capacities preserve the paper's capacity ratios.
	cfg := p.MustConfig(memsim.ModeEDRAM)
	if cfg.EDRAM.Size*p.Scale != 128<<20 {
		t.Fatalf("scaled eDRAM = %d", cfg.EDRAM.Size)
	}
	if cfg.L3.Size*p.Scale != 6<<20 {
		t.Fatalf("scaled L3 = %d", cfg.L3.Size)
	}
	knl := KNL()
	kcfg := knl.MustConfig(memsim.ModeCache)
	if kcfg.MCDRAMBytes*knl.Scale != 16<<30 {
		t.Fatalf("scaled MCDRAM = %d", kcfg.MCDRAMBytes)
	}
}

func TestThreadsMatchTable2(t *testing.T) {
	brd, knl := Broadwell(), KNL()
	if brd.Threads(false) != 4 || brd.Threads(true) != 8 {
		t.Fatal("Broadwell thread counts wrong")
	}
	if knl.Threads(false) != 64 || knl.Threads(true) != 256 {
		t.Fatal("KNL thread counts wrong")
	}
}

func TestBandwidthOrderings(t *testing.T) {
	// The stepping behaviour depends on these orderings.
	brd := Broadwell().MustConfig(memsim.ModeEDRAM)
	if !(brd.Links[memsim.SrcL2].BWGBs > brd.Links[memsim.SrcL3].BWGBs &&
		brd.Links[memsim.SrcL3].BWGBs > brd.Links[memsim.SrcEDRAM].BWGBs &&
		brd.Links[memsim.SrcEDRAM].BWGBs > brd.Links[memsim.SrcDDR].BWGBs) {
		t.Fatal("Broadwell bandwidth ordering broken")
	}
	// eDRAM latency sits between L3 and DDR (Section 2.3(b)).
	if !(brd.Links[memsim.SrcL3].LatNS < brd.Links[memsim.SrcEDRAM].LatNS &&
		brd.Links[memsim.SrcEDRAM].LatNS < brd.Links[memsim.SrcDDR].LatNS) {
		t.Fatal("Broadwell latency ordering broken")
	}
	knl := KNL().MustConfig(memsim.ModeFlat)
	if !(knl.Links[memsim.SrcMCDRAM].BWGBs > 4*knl.Links[memsim.SrcDDR].BWGBs) {
		t.Fatal("MCDRAM must be ~5x DDR bandwidth")
	}
	// MCDRAM idle latency is *higher* than DDR (Section 2.2) — the
	// SpTRSV anomaly depends on this.
	if knl.Links[memsim.SrcMCDRAM].LatNS <= knl.Links[memsim.SrcDDR].LatNS {
		t.Fatal("MCDRAM latency must exceed DDR latency")
	}
}

func TestSkylakeExtensionPlatform(t *testing.T) {
	sky := Skylake()
	if sky.Name != "skylake" || sky.OPMBytes != 128<<20 {
		t.Fatalf("skylake spec wrong: %+v", sky)
	}
	// Memory-side mode only; the CPU-side victim mode is Broadwell's.
	if _, err := sky.Config(memsim.ModeEDRAM); err == nil {
		t.Fatal("skylake should not offer the CPU-side victim mode")
	}
	cfg := sky.MustConfig(memsim.ModeEDRAMMemSide)
	if _, err := memsim.NewSim(cfg); err != nil {
		t.Fatal(err)
	}
	if len(AllWithExtensions()) != 3 {
		t.Fatal("AllWithExtensions should add skylake")
	}
	if len(All()) != 2 {
		t.Fatal("All must stay the paper's two platforms")
	}
}

// MustConfig is Config that panics on error, for tests.
func (p *Platform) MustConfig(mode memsim.Mode) memsim.Config {
	cfg, err := p.Config(mode)
	if err != nil {
		panic(err)
	}
	return cfg
}
