package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sparse"
)

// goldenFootprint is the simulated footprint of every golden cell: past
// Broadwell's and Skylake's scaled L3 and KNL's scaled L2, so every
// level of every mode sees misses.
const goldenFootprint = 1 << 20

const goldenFile = "testdata/traffic.golden"

// goldenSmallMCDRAM is the MCDRAM capacity of the extra KNL cells run
// for every MCDRAM mode. It is below goldenFootprint, so the
// direct-mapped MCDRAM cache conflicts and writes dirty victims back to
// DDR, and flat allocations spill to DDR; at KNL's own scaled 256 MB
// every golden cell would see only cold misses there.
const goldenSmallMCDRAM = 256 << 10

type goldenGen struct {
	name string
	wl   Workload
}

// goldenWorkloads returns one workload per generator at about
// goldenFootprint bytes; scale shrinks the stencil blocking as the
// curve figures do.
func goldenWorkloads(t *testing.T, m *sparse.CSR, scale int64) []goldenGen {
	t.Helper()
	trsv, err := NewSpTRSV(m)
	if err != nil {
		t.Fatal(err)
	}
	return []goldenGen{
		{"Stream", NewStream(goldenFootprint)},
		{"CoStream", NewCoStream(goldenFootprint/4, 3*goldenFootprint/4)},
		{"Stencil", NewStencil(goldenFootprint, scale)},
		{"FFT", NewFFT(goldenFootprint)},
		{"GEMM", &GEMM{N: 192, NB: 32}},
		{"Cholesky", &Cholesky{N: 320, NB: 32}},
		{"SpMV", &SpMV{M: m}},
		{"SpTRANS", &SpTRANS{M: m}},
		{"SpTRSV", trsv},
	}
}

// trafficDigest is the SHA-256 of a simulator's traffic counters and
// per-level cache statistics.
func trafficDigest(sim *memsim.Sim) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", sim.Traffic())
	for _, ls := range sim.LevelStats() {
		fmt.Fprintf(h, "%s %+v\n", ls.Level, ls.Stats)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTraffic pins what the simulator computes: the digest of a
// fresh simulator's Traffic and LevelStats after each generator, for
// every platform × mode, plus every KNL MCDRAM mode again with MCDRAM
// shrunk to goldenSmallMCDRAM. The identity suites compare two runs of
// the same code, so a change that moves every run alike passes them;
// it fails this test. After a deliberate model change, replace
// testdata/traffic.golden with the lines the failure prints.
func TestGoldenTraffic(t *testing.T) {
	want := readGolden(t)
	m := sparse.RandomUniform(16384, 4, 1)
	var got []string
	run := func(prefix string, cfg memsim.Config, gens []goldenGen) {
		for _, g := range gens {
			sim := newSim(t, cfg)
			g.wl.Simulate(sim)
			key := prefix + "/" + g.name
			d := trafficDigest(sim)
			got = append(got, key+" "+d)
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden digest", key)
			} else if w != d {
				t.Errorf("%s: digest %s, golden %s", key, d, w)
			}
		}
	}
	for _, p := range platform.AllWithExtensions() {
		gens := goldenWorkloads(t, m, p.Scale)
		for _, mode := range p.Modes {
			cfg, err := p.Config(mode)
			if err != nil {
				t.Fatal(err)
			}
			prefix := p.Name + "/" + mode.String()
			run(prefix, cfg, gens)
			if cfg.MCDRAMBytes > 0 {
				cfg.MCDRAMBytes = goldenSmallMCDRAM
				run(prefix+"/mcdram256k", cfg, gens)
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, the test ran %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("computed %s:\n%s", goldenFile, strings.Join(got, "\n"))
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
