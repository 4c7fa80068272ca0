package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func TestDefaultTuningCoversAllKernels(t *testing.T) {
	tuning := DefaultTuning()
	kernels := []string{"GEMM", "Cholesky", "SpMV", "SpTRANS", "SpTRSV", "FFT", "Stencil", "Stream"}
	if len(tuning) != len(kernels) {
		t.Fatalf("tuning has %d kernels, want %d", len(tuning), len(kernels))
	}
	for _, k := range kernels {
		tu, ok := tuning[k]
		if !ok {
			t.Fatalf("missing tuning for %s", k)
		}
		for _, p := range []string{"broadwell", "knl"} {
			eff, ok := tu.Eff[p]
			if !ok || eff <= 0 || eff > 1 {
				t.Fatalf("%s: bad efficiency for %s: %v", k, p, eff)
			}
		}
		if tu.MLP <= 0 {
			t.Fatalf("%s: bad MLP", k)
		}
	}
}

func TestMachineConstruction(t *testing.T) {
	brd := platform.Broadwell()
	m, err := NewMachine(brd, memsim.ModeEDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if m.Label() != "broadwell/edram" {
		t.Fatalf("label = %q", m.Label())
	}
	if _, err := NewMachine(brd, memsim.ModeFlat); err == nil {
		t.Fatal("unsupported mode accepted")
	}
	machines, err := Machines(platform.KNL())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(machines); got != 4 {
		t.Fatalf("KNL machines = %d, want 4", got)
	}
}

// TestMachineConfigHash holds the fingerprint NewMachine caches to the
// one obs.Hash computes from the config, on every mode of every
// platform: dense store keys fold it in, so a stale or wrong cache
// would address every dense cell under a different digest.
func TestMachineConfigHash(t *testing.T) {
	for _, p := range platform.AllWithExtensions() {
		machines, err := Machines(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			if got, want := m.ConfigHash(), obs.Hash(m.Config()); got != want {
				t.Errorf("%s: ConfigHash() = %s, obs.Hash(Config()) = %s", m.Label(), got, want)
			}
		}
	}
}

func TestRunUnknownKernelRejected(t *testing.T) {
	m := MustMachine(platform.Broadwell(), memsim.ModeDDR)
	if _, err := m.Run(fakeWorkload{}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

type fakeWorkload struct{}

func (fakeWorkload) Name() string             { return "NotAKernel" }
func (fakeWorkload) Flops() float64           { return 1 }
func (fakeWorkload) FootprintBytes() int64    { return 1 }
func (fakeWorkload) Simulate(sim *memsim.Sim) { sim.Alloc("x", 64).Load(0, 8) }

func TestStreamEDRAMEffectiveRegion(t *testing.T) {
	brd := platform.Broadwell()
	ddr := MustMachine(brd, memsim.ModeDDR)
	ed := MustMachine(brd, memsim.ModeEDRAM)
	// Paper-scale 64MB triad: inside the eDRAM effective region.
	w := trace.NewStream(brd.ScaledBytes(64 << 20))
	rd := ddr.MustRun(w)
	re := ed.MustRun(w)
	sp := re.GFlops / rd.GFlops
	if sp < 1.5 || sp > 3.5 {
		t.Fatalf("eDRAM region speedup = %v, want ~2.4", sp)
	}
	// Reported footprint is back at paper scale.
	if rd.FootprintBytes < 50<<20 || rd.FootprintBytes > 80<<20 {
		t.Fatalf("reported footprint = %d, want ~64MB", rd.FootprintBytes)
	}
}

func TestStreamEDRAMNeverHurts(t *testing.T) {
	// Table 4's note: "we have not observed worse performance using
	// eDRAM than without eDRAM."
	brd := platform.Broadwell()
	ddr := MustMachine(brd, memsim.ModeDDR)
	ed := MustMachine(brd, memsim.ModeEDRAM)
	for _, mb := range []int64{2, 4, 8, 16, 64, 128, 160, 256, 1024} {
		w := trace.NewStream(brd.ScaledBytes(mb << 20))
		rd := ddr.MustRun(w)
		re := ed.MustRun(w)
		if re.GFlops < rd.GFlops*0.98 {
			t.Fatalf("eDRAM hurts at %dMB: %v vs %v", mb, re.GFlops, rd.GFlops)
		}
	}
}

func TestKNLStreamModeOrdering(t *testing.T) {
	knl := platform.KNL()
	w := trace.NewStream(knl.ScaledBytes(2 << 30)) // 2GB: flat resident
	res := map[memsim.Mode]memsim.Result{}
	for _, mode := range knl.Modes {
		res[mode] = MustMachine(knl, mode).MustRun(w)
	}
	// Flat >= cache (tag overhead), both >> DDR (Table 5 Stream row).
	if res[memsim.ModeFlat].GFlops < res[memsim.ModeCache].GFlops {
		t.Fatal("flat should not lose to cache mode for resident data")
	}
	ratio := res[memsim.ModeFlat].GFlops / res[memsim.ModeDDR].GFlops
	if ratio < 4 || ratio > 7 {
		t.Fatalf("flat/DDR plateau ratio = %v, want ~5.4", ratio)
	}
}

func TestKNLFlatSplitCollapse(t *testing.T) {
	// Beyond 16GB, flat mode collapses below pure DDR (Figures 15/23).
	knl := platform.KNL()
	w := trace.NewStream(knl.ScaledBytes(24 << 30))
	flat := MustMachine(knl, memsim.ModeFlat).MustRun(w)
	ddr := MustMachine(knl, memsim.ModeDDR).MustRun(w)
	if flat.GFlops >= ddr.GFlops {
		t.Fatalf("split flat should collapse below DDR: %v vs %v", flat.GFlops, ddr.GFlops)
	}
	if flat.Bound != memsim.BoundSplit {
		t.Fatalf("bound = %s, want split", flat.Bound)
	}
	// Hybrid at the same footprint stays healthy.
	hy := MustMachine(knl, memsim.ModeHybrid).MustRun(w)
	if hy.GFlops <= ddr.GFlops {
		t.Fatalf("hybrid should beat DDR at 24GB: %v vs %v", hy.GFlops, ddr.GFlops)
	}
}

func TestSpTRSVLatencyAnomalyOnKNL(t *testing.T) {
	// Section 4.2.2: SpTRSV has so little memory-level parallelism that
	// MCDRAM's higher idle latency makes it no better (or worse) than
	// DDR at large footprints.
	knl := platform.KNL()
	m := sparse.Collection()[2].Instantiate(knl.Scale * 4) // mid-size
	w, err := trace.NewSpTRSV(m)
	if err != nil {
		t.Fatal(err)
	}
	flat := MustMachine(knl, memsim.ModeFlat).MustRun(w)
	ddr := MustMachine(knl, memsim.ModeDDR).MustRun(w)
	if flat.GFlops > ddr.GFlops*1.3 {
		t.Fatalf("SpTRSV should not gain much from MCDRAM: flat %v vs ddr %v", flat.GFlops, ddr.GFlops)
	}
}

func TestSpTRANSNoMCDRAMBenefitOnKNL(t *testing.T) {
	// DESIGN §6 target 7 (Table 5 row SpTRANS): the scan-based
	// transpose is L2-tiled, so no MCDRAM mode moves it from DDR, from
	// a footprint inside the 32 MB L2 to ones well past it.
	knl := platform.KNL()
	ms, err := Machines(knl)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Mode != memsim.ModeDDR {
		t.Fatalf("first KNL mode is %v, want ddr", ms[0].Mode)
	}
	for _, fam := range []sparse.Family{sparse.FamRandomUniform, sparse.FamPoisson2D} {
		for _, fp := range []int64{8 << 20, 64 << 20, 512 << 20} {
			spec := sparse.Spec{Name: fmt.Sprintf("%v-%dMB", fam, fp>>20), Family: fam, PaperFootprint: fp, RowNNZ: 8, Seed: 1}
			m, err := spec.Checked(knl.Scale)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := Exact.EstimateMachines(context.Background(), nil, nil, ms, &trace.SpTRANS{M: m}, (*Machine).Label)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			ddr := rs[0]
			for i, r := range rs[1:] {
				if ratio := r.GFlops / ddr.GFlops; math.Abs(ratio-1) > 0.05 {
					t.Errorf("%s on %v: %.3f× ddr (%.2f vs %.2f GFlop/s), want within 5%%",
						spec.Name, ms[i+1].Mode, ratio, r.GFlops, ddr.GFlops)
				}
			}
		}
	}
}

func TestSpTRSVThrottledByLevels(t *testing.T) {
	// A chain matrix (parallelism 1) must be far slower than a wide
	// one of similar size.
	brd := platform.Broadwell()
	m := MustMachine(brd, memsim.ModeDDR)
	chain, err := trace.NewSpTRSV(sparse.Tridiag(300000))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := trace.NewSpTRSV(sparse.BlockDiag(300000, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	rc := m.MustRun(chain)
	rw := m.MustRun(wide)
	// The chain is pinned to MLP 1; the wide schedule keeps the full
	// thread complement (8 × 0.6). Despite the wide schedule's strided
	// level-order traversal costing extra traffic, it must still win.
	if rc.EffectiveMLP != 1 {
		t.Fatalf("chain MLP = %v, want 1", rc.EffectiveMLP)
	}
	if rw.EffectiveMLP < 4 {
		t.Fatalf("wide MLP = %v, want ~4.8", rw.EffectiveMLP)
	}
	if rc.GFlops*1.3 > rw.GFlops {
		t.Fatalf("chain should be slower: chain %v vs wide %v", rc.GFlops, rw.GFlops)
	}
}

func TestRunDenseGEMMPeaksNearPaper(t *testing.T) {
	// Best Broadwell GEMM ~205 GFlop/s (Table 4), eDRAM moves the peak
	// by ≲ 5%.
	brd := platform.Broadwell()
	best := func(mode memsim.Mode) float64 {
		m := MustMachine(brd, mode)
		peak := 0.0
		for _, nb := range []int{256, 512, 1024, 2048, 4096} {
			r := m.MustRunDense(trace.DenseGEMM, 16128, nb)
			if r.GFlops > peak {
				peak = r.GFlops
			}
		}
		return peak
	}
	pd := best(memsim.ModeDDR)
	pe := best(memsim.ModeEDRAM)
	if pd < 180 || pd > 230 {
		t.Fatalf("Broadwell GEMM peak = %v, want ~205", pd)
	}
	gain := (pe - pd) / pd
	if gain < 0 || gain > 0.08 {
		t.Fatalf("eDRAM peak gain = %v, want small positive", gain)
	}
}

func TestRunDenseEDRAMExpandsNearPeakRegion(t *testing.T) {
	// Figure 7's key observation: with eDRAM more (n, nb) samples reach
	// 90% of peak.
	brd := platform.Broadwell()
	count90 := func(mode memsim.Mode) int {
		m := MustMachine(brd, mode)
		peak := 0.0
		var vals []float64
		for _, n := range []int{2048, 4096, 8192, 16128} {
			for _, nb := range []int{128, 512, 1024, 2048, 4096} {
				r := m.MustRunDense(trace.DenseGEMM, n, nb)
				vals = append(vals, r.GFlops)
				if r.GFlops > peak {
					peak = r.GFlops
				}
			}
		}
		n := 0
		for _, v := range vals {
			if v > 0.9*peak {
				n++
			}
		}
		return n
	}
	if count90(memsim.ModeEDRAM) <= count90(memsim.ModeDDR) {
		t.Fatal("eDRAM should expand the near-peak region")
	}
}

func TestRunDenseKNLFlatCollapse(t *testing.T) {
	knl := platform.KNL()
	flat := MustMachine(knl, memsim.ModeFlat)
	ok := flat.MustRunDense(trace.DenseGEMM, 16384, 1024)  // 8GB fits
	bad := flat.MustRunDense(trace.DenseGEMM, 30000, 1024) // 28.8GB splits
	if bad.GFlops > ok.GFlops/2 {
		t.Fatalf("flat should collapse past MCDRAM capacity: %v vs %v", bad.GFlops, ok.GFlops)
	}
	if bad.Bound != memsim.BoundSplit {
		t.Fatalf("bound = %s", bad.Bound)
	}
	// Hybrid survives the same size (Section 4.2.1 III).
	hy := MustMachine(knl, memsim.ModeHybrid).MustRunDense(trace.DenseGEMM, 30000, 1024)
	if hy.GFlops < ok.GFlops/2 {
		t.Fatalf("hybrid should stay healthy: %v", hy.GFlops)
	}
}

// TestKNLGEMMHybridVsCache pins where DESIGN §6 target #5 (hybrid
// beats cache mode for GEMM, Table 5) stands on the full Figure 15
// grid: it is not reproduced. Hybrid never beats cache. Wherever both
// modes are compute-bound they are equal, and the only cells where
// they differ are nb = 128 at n >= 26,880, where hybrid's halved MCDRAM
// cache leaves it DDR-bound (1,201 vs 895 GFlop/s at n = 32,000). A
// model change that makes this test fail must update §6 #5 and
// EXPERIMENTS.md Known deviation 3 with it.
func TestKNLGEMMHybridVsCache(t *testing.T) {
	knl := platform.KNL()
	cache := MustMachine(knl, memsim.ModeCache)
	hybrid := MustMachine(knl, memsim.ModeHybrid)
	var lower []string
	for n := 256; n <= 32000; n += 1024 { // denseGrid(KNL, full)
		for nb := 128; nb <= 4096; nb += 128 {
			c := cache.MustRunDense(trace.DenseGEMM, n, nb)
			h := hybrid.MustRunDense(trace.DenseGEMM, n, nb)
			switch {
			case h.GFlops > c.GFlops:
				t.Errorf("n=%d nb=%d: hybrid %.1f > cache %.1f GFlop/s; §6 #5 now holds here", n, nb, h.GFlops, c.GFlops)
			case c.Bound == memsim.BoundCompute && h.Bound == memsim.BoundCompute:
				if h.GFlops != c.GFlops {
					t.Errorf("n=%d nb=%d: both compute-bound but hybrid %v != cache %v", n, nb, h.GFlops, c.GFlops)
				}
			case h.GFlops < c.GFlops:
				if h.Bound != memsim.BoundDDRBW {
					t.Errorf("n=%d nb=%d: hybrid below cache bound by %s, want %s", n, nb, h.Bound, memsim.BoundDDRBW)
				}
				lower = append(lower, fmt.Sprintf("%d/%d", n, nb))
			}
		}
	}
	want := "[26880/128 27904/128 28928/128 29952/128 30976/128 32000/128]"
	if got := fmt.Sprint(lower); got != want {
		t.Errorf("cells where hybrid < cache (n/nb) = %s, want %s", got, want)
	}
}

func TestRunDenseCholeskyEDRAMRecovery(t *testing.T) {
	// Figure 8: Broadwell Cholesky with oversized tiles is DDR bound;
	// eDRAM recovers it toward the compute ceiling while the peak
	// moves only a few percent (Table 4: 184.3 -> 192.6).
	brd := platform.Broadwell()
	ddr := MustMachine(brd, memsim.ModeDDR).MustRunDense(trace.DenseCholesky, 16128, 4096)
	ed := MustMachine(brd, memsim.ModeEDRAM).MustRunDense(trace.DenseCholesky, 16128, 4096)
	if ed.GFlops < ddr.GFlops*1.1 {
		t.Fatalf("eDRAM should recover oversized-tile Cholesky: %v vs %v", ed.GFlops, ddr.GFlops)
	}
	dBest := MustMachine(brd, memsim.ModeDDR).MustRunDense(trace.DenseCholesky, 16128, 512)
	if dBest.GFlops < 160 || dBest.GFlops > 230 {
		t.Fatalf("Broadwell Cholesky best = %v, want ~190", dBest.GFlops)
	}
}

func TestRunDenseErrors(t *testing.T) {
	m := MustMachine(platform.Broadwell(), memsim.ModeDDR)
	if _, err := m.RunDense(trace.DenseGEMM, 0, 64); err == nil {
		t.Fatal("zero order accepted")
	}
}

// TestRunOnPooledSimMatchesRun proves the pooled-simulator path is
// bit-identical to the allocate-per-run path across machines and
// workloads — the invariant that lets sweeps reuse simulators.
func TestRunOnPooledSimMatchesRun(t *testing.T) {
	brd := platform.Broadwell()
	machines, err := Machines(brd)
	if err != nil {
		t.Fatal(err)
	}
	spec := sparse.Collection()[40]
	mat := spec.Instantiate(brd.Scale)
	workloads := []trace.Workload{
		trace.NewStream(brd.ScaledBytes(64 << 20)),
		&trace.SpMV{M: mat},
		trace.NewFFT(brd.ScaledBytes(32 << 20)),
	}
	for _, m := range machines {
		sim, err := memsim.NewSim(m.Config())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			fresh, err := m.Run(w)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Label(), w.Name(), err)
			}
			pooled, err := m.RunOn(sim, w) // same sim reused across cells
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Label(), w.Name(), err)
			}
			if fresh != pooled {
				t.Errorf("%s/%s: pooled sim diverged:\nfresh:  %+v\npooled: %+v",
					m.Label(), w.Name(), fresh, pooled)
			}
		}
	}
}

// TestRunOnRejectsMismatchedSim checks a simulator built for another
// configuration is refused instead of silently producing wrong traffic.
func TestRunOnRejectsMismatchedSim(t *testing.T) {
	brd := platform.Broadwell()
	ddr := MustMachine(brd, memsim.ModeDDR)
	ed := MustMachine(brd, memsim.ModeEDRAM)
	sim, err := memsim.NewSim(ddr.Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.RunOn(sim, trace.NewStream(1<<20)); err == nil {
		t.Fatal("mismatched simulator accepted")
	}
	if _, err := ed.RunOn(nil, trace.NewStream(1<<20)); err == nil {
		t.Fatal("nil simulator accepted")
	}
}

// cell is one trace-simulation sweep job: a workload on a machine.
type cell struct {
	m  *Machine
	wl trace.Workload
}

// estimateCells evaluates cells on the sweep engine through the exact
// estimator, as the harness sweeps do. onJob, when non-nil, sees each
// job's worker before the estimate.
func estimateCells(eng *sweep.Engine, cells []cell, onJob func(w *sweep.Worker, c cell)) ([]memsim.Result, error) {
	return sweep.Map(context.Background(), eng, cells, func(ctx context.Context, w *sweep.Worker, c cell) (memsim.Result, error) {
		if onJob != nil {
			onJob(w, c)
		}
		return Exact.EstimateCell(ctx, eng, w, c.m, c.wl, c.wl.Name()+"|"+c.m.Label())
	})
}

// TestRunBatchMatchesSequential proves a parallel sweep of exact cells
// produces the sequential path's results in submission order.
func TestRunBatchMatchesSequential(t *testing.T) {
	brd := platform.Broadwell()
	machines, err := Machines(brd)
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, m := range machines {
		for _, mb := range []int64{8, 32, 96} {
			cells = append(cells, cell{m, trace.NewStream(brd.ScaledBytes(mb << 20))})
		}
	}
	want := make([]memsim.Result, len(cells))
	for i, c := range cells {
		r, err := c.m.Run(c.wl)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 4} {
		got, err := estimateCells(&sweep.Engine{Workers: workers}, cells, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d job %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunBatchIsolatesFailures injects a bad cell between good ones on
// a single worker: the failure surfaces as a sweep.JobError at its
// submission index and evicts the worker's pooled simulator, and the
// later cell on that worker, on a rebuilt simulator, still matches
// Machine.Run exactly.
func TestRunBatchIsolatesFailures(t *testing.T) {
	brd := platform.Broadwell()
	m := MustMachine(brd, memsim.ModeEDRAM)
	good := trace.NewStream(brd.ScaledBytes(64 << 20))
	cells := []cell{
		{m, good},
		{m, fakeWorkload{}}, // unknown kernel: props error after simulating
		{m, good},
	}
	var sims []*memsim.Sim // the pooled simulator each job starts on
	got, err := estimateCells(&sweep.Engine{Workers: 1}, cells, func(w *sweep.Worker, c cell) {
		sim, err := c.m.PooledSim(w)
		if err != nil {
			t.Error(err)
		}
		sims = append(sims, sim)
	})
	var errs sweep.Errors
	if !errors.As(err, &errs) || len(errs) != 1 || errs[0].Index != 1 {
		t.Fatalf("want one JobError at index 1, got %v", err)
	}
	if sims[1] != sims[0] {
		t.Fatal("the second cell did not reuse the worker's pooled simulator")
	}
	if sims[2] == sims[1] {
		t.Fatal("the failed cell did not evict its worker's pooled simulator")
	}
	want, err2 := m.Run(good)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got[0] != want || got[2] != want {
		t.Fatalf("failing job poisoned its worker's pooled sim: %+v / %+v vs %+v", got[0], got[2], want)
	}
	if got[1] != (memsim.Result{}) {
		t.Fatalf("failed job should yield zero result, got %+v", got[1])
	}
}

// TestRunDenseBatchMatchesSequential checks a sweep of exact dense
// cells against direct RunDense calls.
func TestRunDenseBatchMatchesSequential(t *testing.T) {
	knl := platform.KNL()
	machines, err := Machines(knl)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []DenseJob
	for _, m := range machines {
		for _, nb := range []int{256, 1024} {
			jobs = append(jobs, DenseJob{Machine: m, Kind: trace.DenseGEMM, N: 8192, NB: nb})
		}
	}
	eng := &sweep.Engine{Workers: 3}
	got, err := sweep.Map(context.Background(), eng, jobs, func(ctx context.Context, _ *sweep.Worker, j DenseJob) (memsim.Result, error) {
		return Exact.EstimateDense(ctx, eng, j, DenseCellKey(j))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := j.Machine.RunDense(j.Kind, j.N, j.NB)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("job %d: %+v != %+v", i, got[i], want)
		}
	}
}

// MustMachine is NewMachine that panics on error, for tests.
func MustMachine(p *platform.Platform, mode memsim.Mode) *Machine {
	m, err := NewMachine(p, mode)
	if err != nil {
		panic(err)
	}
	return m
}

// MustRun is Run that panics on error, for tests.
func (m *Machine) MustRun(w trace.Workload) memsim.Result {
	r, err := m.Run(w)
	if err != nil {
		panic(err)
	}
	return r
}

// MustRunDense is RunDense that panics on error, for tests.
func (m *Machine) MustRunDense(kind trace.DenseKind, n, nb int) memsim.Result {
	r, err := m.RunDense(kind, n, nb)
	if err != nil {
		panic(err)
	}
	return r
}
