package trace

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sparse"
)

// fanoutSet is one machine set a cell fans out over: every mode of a
// platform, at its own MCDRAM size or with MCDRAM shrunk.
type fanoutSet struct {
	name string
	cfgs []memsim.Config
}

// fanoutSets returns each platform's mode set at its native MCDRAM size
// and, where a mode has MCDRAM, again with it shrunk to
// goldenSmallMCDRAM (the DDR baseline keeps its config), as
// TestGoldenTraffic runs them.
func fanoutSets(t *testing.T) []fanoutSet {
	t.Helper()
	var sets []fanoutSet
	for _, p := range platform.AllWithExtensions() {
		native := fanoutSet{name: p.Name}
		small := fanoutSet{name: p.Name + "/mcdram256k"}
		shrunk := false
		for _, mode := range p.Modes {
			cfg, err := p.Config(mode)
			if err != nil {
				t.Fatal(err)
			}
			native.cfgs = append(native.cfgs, cfg)
			if cfg.MCDRAMBytes > 0 {
				cfg.MCDRAMBytes = goldenSmallMCDRAM
				shrunk = true
			}
			small.cfgs = append(small.cfgs, cfg)
		}
		sets = append(sets, native)
		if shrunk {
			sets = append(sets, small)
		}
	}
	return sets
}

// TestFanoutMatchesSeparateSims is the fan-out's differential test: for
// every golden generator and every platform's mode set, at native and
// shrunk MCDRAM, each sim driven by memsim.Fanout ends with the Traffic
// and LevelStats of a fresh sim run alone. It also pins which sims
// detach: the flat and hybrid allocations that spill to DDR at a base
// not congruent to the front's modulo the L2 set span.
func TestFanoutMatchesSeparateSims(t *testing.T) {
	m := sparse.RandomUniform(16384, 4, 1)
	var detached []string
	for _, set := range fanoutSets(t) {
		sims := make([]*memsim.Sim, len(set.cfgs))
		for i, cfg := range set.cfgs {
			sims[i] = newSim(t, cfg)
		}
		for _, g := range goldenWorkloads(t, m, set.cfgs[0].Scale) {
			for _, s := range memsim.Fanout(sims, g.wl.Simulate) {
				detached = append(detached, set.name+"/"+s.Config().Mode.String()+"/"+g.name)
			}
			for i, cfg := range set.cfgs {
				alone := newSim(t, cfg)
				g.wl.Simulate(alone)
				if got, want := trafficDigest(sims[i]), trafficDigest(alone); got != want {
					t.Errorf("%s/%s/%s: fan-out digest %s, alone %s", set.name, cfg.Mode, g.name, got, want)
				}
			}
		}
	}
	sort.Strings(detached)
	want := []string{
		"knl/mcdram256k/flat/CoStream",
		"knl/mcdram256k/flat/SpMV",
		"knl/mcdram256k/flat/SpTRSV",
		"knl/mcdram256k/hybrid/CoStream",
		"knl/mcdram256k/hybrid/SpMV",
		"knl/mcdram256k/hybrid/SpTRANS",
		"knl/mcdram256k/hybrid/SpTRSV",
	}
	if !slices.Equal(detached, want) {
		t.Errorf("detached sims:\n got %q\nwant %q", detached, want)
	}
}

// TestFanoutAcrossGeometries drives every platform's modes in one
// Fanout call: sims group by on-chip geometry, a sim listed twice is
// driven once, and every sim still ends as it would alone.
func TestFanoutAcrossGeometries(t *testing.T) {
	var cfgs []memsim.Config
	for _, set := range fanoutSets(t) {
		cfgs = append(cfgs, set.cfgs...)
	}
	sims := make([]*memsim.Sim, len(cfgs))
	for i, cfg := range cfgs {
		sims[i] = newSim(t, cfg)
	}
	wl := NewFFT(goldenFootprint)
	memsim.Fanout(append(sims, sims[0]), wl.Simulate)
	for i, cfg := range cfgs {
		alone := newSim(t, cfg)
		wl.Simulate(alone)
		if got, want := trafficDigest(sims[i]), trafficDigest(alone); got != want {
			t.Errorf("%s/%s (MCDRAM %d): fan-out digest %s, alone %s", cfg.Name, cfg.Mode, cfg.MCDRAMBytes, got, want)
		}
	}
}
