package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Extension experiments go beyond the paper's figures into questions
// it raises but could not measure: the Skylake memory-side eDRAM
// arrangement (Section 2.1's architectural contrast) and the
// multi-tenant OPM-sharing scenario from the future-work list.

// extensionExperiments returns the extra experiments appended to the
// registry, instrumented like the paper experiments.
func extensionExperiments() []Experiment {
	return instrumentAll([]Experiment{
		{
			ID:    "ext-skylake",
			Title: "Extension: CPU-side victim eDRAM (Broadwell) vs memory-side eDRAM (Skylake)",
			Run:   runExtSkylake,
		},
		{
			ID:    "ext-multiuser",
			Title: "Extension: two tenants sharing one OPM (future-work scenario)",
			Run:   runExtMultiuser,
		},
		{
			ID:    "abl-ablations",
			Title: "Ablations: model mechanisms switched off one at a time",
			Run:   runAblations,
		},
	})
}

// runExtSkylake sweeps a triad across both eDRAM arrangements. The
// footprint points are independent, so they run on the sweep engine
// (one job per footprint, three arrangements each) and are assembled
// in footprint order.
func runExtSkylake(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{CSV: map[string][]string{}}
	brd := platform.Broadwell()
	sky := platform.Skylake()
	mBrd, err := core.NewMachine(brd, memsim.ModeEDRAM)
	if err != nil {
		return nil, err
	}
	mSky, err := core.NewMachine(sky, memsim.ModeEDRAMMemSide)
	if err != nil {
		return nil, err
	}
	mDDR, err := core.NewMachine(brd, memsim.ModeDDR)
	if err != nil {
		return nil, err
	}

	points := 16
	if opt.CurvePoints > 1 {
		points = opt.CurvePoints
	}
	fps := logSpace(1<<20, 1<<30, points)
	// arrangementGBs is one footprint's triad bandwidth under the
	// three eDRAM arrangements; exported fields for the store.
	type arrangementGBs struct{ DDR, Victim, MemSide float64 }
	cache := cacheFor[int64, arrangementGBs](opt, "ext/skylake",
		machinesHash([]*core.Machine{mDDR, mBrd, mSky}, brd.Scale),
		func(fp int64) string { return fmt.Sprint(fp) })
	eng := opt.engine()
	triples, err := sweep.MapCached(ctx, eng, fps, cache,
		func(ctx context.Context, sw *sweep.Worker, fp int64) (arrangementGBs, error) {
			w := trace.NewStream(brd.ScaledBytes(fp))
			appB := 32.0 / 2.0 * w.Flops()
			legs := []*core.Machine{mDDR, mBrd, mSky}
			rs, err := opt.estimator().EstimateMachines(ctx, eng, sw, legs, w, func(m *core.Machine) string {
				return fmt.Sprintf("triad|fp=%d|%s", fp, m.Label())
			})
			if err != nil {
				return arrangementGBs{}, fmt.Errorf("triad at %d MB on %s: %w", fp>>20, legs[len(rs)].Label(), err)
			}
			gbs := func(r memsim.Result) float64 { return appB / r.Seconds / 1e9 }
			return arrangementGBs{DDR: gbs(rs[0]), Victim: gbs(rs[1]), MemSide: gbs(rs[2])}, nil
		})
	if err != nil {
		return nil, err
	}

	series := map[string]*plot.Series{
		"ddr":        {Name: "no eDRAM"},
		"victim":     {Name: "CPU-side victim (BRD)"},
		"memoryside": {Name: "memory-side (SKL)"},
	}
	csv := []string{csvLine("footprint_mb", "arrangement", "app_gbs")}
	add := func(key string, fp int64, gbs float64) {
		series[key].X = append(series[key].X, float64(fp)/(1<<20))
		series[key].Y = append(series[key].Y, gbs)
		csv = append(csv, csvLine(f(float64(fp)/(1<<20)), key, f(gbs)))
	}
	var vSum, mSum float64
	for i, fp := range fps {
		add("ddr", fp, triples[i].DDR)
		add("victim", fp, triples[i].Victim)
		add("memoryside", fp, triples[i].MemSide)
		vSum += triples[i].Victim
		mSum += triples[i].MemSide
	}
	var b strings.Builder
	b.WriteString(plot.Lines("eDRAM arrangement: victim (CPU-side) vs memory-side, STREAM GB/s vs footprint (MB)",
		[]plot.Series{*series["ddr"], *series["victim"], *series["memoryside"]}, 72, 16, true))
	b.WriteString("\nCPU-side tags allow earlier checking; the memory-side buffer fills on every\n" +
		"DRAM access (no victim-only population) but answers behind the controller —\n" +
		"the trade Section 2.1 describes for Skylake.\n")
	rep.CSV["ext_skylake.csv"] = csv
	rep.Findings = append(rep.Findings, fmt.Sprintf(
		"mean in-sweep bandwidth: victim %.1f GB/s vs memory-side %.1f GB/s (ratio %.3f)",
		vSum/float64(points), mSum/float64(points), vSum/mSum))
	rep.Text = b.String()
	return rep, nil
}

// runExtMultiuser measures interference when two triad tenants share
// the eDRAM and MCDRAM. The four tenant scenarios are independent
// jobs; each drives its solo and co-scheduled runs on its worker's
// pooled simulator.
func runExtMultiuser(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{CSV: map[string][]string{}}
	var b strings.Builder
	csv := []string{csvLine("platform", "mode", "tenant_fp_mb", "isolated_gbs", "shared_gbs", "interference")}
	type scenario struct {
		plat *platform.Platform
		mode memsim.Mode
		fp   int64 // per-tenant paper footprint
	}
	cases := []scenario{
		{platform.Broadwell(), memsim.ModeEDRAM, 48 << 20}, // 2x48MB < 128MB: both fit
		{platform.Broadwell(), memsim.ModeEDRAM, 96 << 20}, // 2x96MB > 128MB: contended
		{platform.KNL(), memsim.ModeCache, 4 << 30},        // 2x4GB < 16GB
		{platform.KNL(), memsim.ModeCache, 12 << 30},       // 2x12GB > 16GB
	}
	// tenancyGBs is one scenario's per-tenant bandwidth, isolated and
	// co-scheduled; exported fields for the store. Each scenario
	// builds its machine inside the job, so its simulator
	// configuration is hashed into the job key instead of a sweep-
	// level config hash.
	type tenancyGBs struct{ Solo, Shared float64 }
	cache := cacheFor[scenario, tenancyGBs](opt, "ext/multiuser", "",
		func(tc scenario) string {
			cfg, err := tc.plat.Config(tc.mode)
			if err != nil {
				return fmt.Sprintf("badcfg|%s|%s|%d", tc.plat.Name, tc.mode, tc.fp)
			}
			return fmt.Sprintf("%s|%d|%d", obs.Hash(cfg), tc.plat.Scale, tc.fp)
		})
	eng := opt.engine()
	outcomes, err := sweep.MapCached(ctx, eng, cases, cache,
		func(ctx context.Context, w *sweep.Worker, tc scenario) (tenancyGBs, error) {
			m, err := core.NewMachine(tc.plat, tc.mode)
			if err != nil {
				return tenancyGBs{}, err
			}
			simFP := tc.plat.ScaledBytes(tc.fp)
			solo := trace.NewStream(simFP)
			key := fmt.Sprintf("tenancy|%s|fp=%d", m.Label(), tc.fp)
			rSolo, err := opt.estimator().EstimateCell(ctx, eng, w, m, solo, key+"|solo")
			if err != nil {
				return tenancyGBs{}, err
			}
			co := trace.NewCoStream(simFP, simFP)
			rCo, err := opt.estimator().EstimateCell(ctx, eng, w, m, co, key+"|shared")
			if err != nil {
				return tenancyGBs{}, err
			}
			// Each tenant gets half the shared run's service.
			return tenancyGBs{
				Solo:   32.0 / 2.0 * solo.Flops() / rSolo.Seconds / 1e9,
				Shared: 32.0 / 2.0 * co.Flops() / 2 / rCo.Seconds / 1e9,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, tc := range cases {
		soloGBs, perTenant := outcomes[i].Solo, outcomes[i].Shared
		interference := soloGBs / perTenant
		fmt.Fprintf(&b, "%-10s %-7s tenant %4d MB: isolated %6.1f GB/s, shared %6.1f GB/s -> %.2fx slowdown\n",
			tc.plat.Name, tc.mode, tc.fp>>20, soloGBs, perTenant, interference)
		csv = append(csv, csvLine(tc.plat.Name, tc.mode.String(), i64(tc.fp>>20),
			f(soloGBs), f(perTenant), f(interference)))
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"%s/%s, 2 tenants x %d MB: %.2fx per-tenant slowdown vs isolation",
			tc.plat.Name, tc.mode, tc.fp>>20, interference))
	}
	b.WriteString("\nWhen the combined working set exceeds the OPM, tenants evict each other and\n" +
		"fall toward the DDR plateau — the fairness/efficiency question the paper's\n" +
		"future-work list poses for OS-level OPM management.\n")
	rep.CSV["ext_multiuser.csv"] = csv
	rep.Text = b.String()
	return rep, nil
}

// runAblations switches off one model mechanism at a time and reports
// which paper phenomenon disappears — the evidence that each mechanism
// is load-bearing (DESIGN.md §6).
func runAblations(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{CSV: map[string][]string{}}
	var b strings.Builder
	csv := []string{csvLine("ablation", "metric", "with", "without")}

	// 1. MLP ramp off -> the Stream L3 valley disappears.
	brd := platform.Broadwell()
	valleyFP := brd.ScaledBytes(10 << 20)
	w := trace.NewStream(valleyFP)
	cfg, err := brd.Config(memsim.ModeDDR)
	if err != nil {
		return nil, err
	}
	run := func(cfg memsim.Config) (memsim.Result, error) {
		sim, err := memsim.NewSim(cfg)
		if err != nil {
			return memsim.Result{}, err
		}
		w.Simulate(sim)
		return memsim.Evaluate(&cfg, sim.Traffic(), memsim.KernelProps{
			Name: "Stream", Flops: w.Flops(), Threads: 8, MLP: 8, Eff: 0.8,
		})
	}
	withRamp, err := run(cfg)
	if err != nil {
		return nil, err
	}
	noRamp := cfg
	noRamp.MLPRampFactor = 0 // disables the ramp
	withoutRamp, err := run(noRamp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "MLP ramp: valley throughput %.1f GB/s with ramp vs %.1f without (valley %s)\n",
		withRamp.MemGBs, withoutRamp.MemGBs, presentWord(withRamp.MemGBs < withoutRamp.MemGBs))
	csv = append(csv, csvLine("mlp_ramp", "valley_gbs", f(withRamp.MemGBs), f(withoutRamp.MemGBs)))

	// 2. Split penalty off -> flat mode no longer collapses past 16GB.
	knl := platform.KNL()
	big := trace.NewStream(knl.ScaledBytes(24 << 30))
	flatCfg, err := knl.Config(memsim.ModeFlat)
	if err != nil {
		return nil, err
	}
	runK := func(cfg memsim.Config) (memsim.Result, error) {
		sim, err := memsim.NewSim(cfg)
		if err != nil {
			return memsim.Result{}, err
		}
		big.Simulate(sim)
		return memsim.Evaluate(&cfg, sim.Traffic(), memsim.KernelProps{
			Name: "Stream", Flops: big.Flops(), Threads: 256, MLP: 8, Eff: 0.8,
		})
	}
	withSplit, err := runK(flatCfg)
	if err != nil {
		return nil, err
	}
	noSplit := flatCfg
	noSplit.SplitPenalty = 1
	withoutSplit, err := runK(noSplit)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "Split penalty: 24GB flat %.1f GB/s with penalty vs %.1f without (collapse %s)\n",
		withSplit.MemGBs, withoutSplit.MemGBs, presentWord(withSplit.MemGBs < withoutSplit.MemGBs/2))
	csv = append(csv, csvLine("split_penalty", "flat24gb_gbs", f(withSplit.MemGBs), f(withoutSplit.MemGBs)))

	// 3. MCDRAM tag overhead off -> cache mode catches up to flat.
	resident := trace.NewStream(knl.ScaledBytes(2 << 30))
	cacheCfg, err := knl.Config(memsim.ModeCache)
	if err != nil {
		return nil, err
	}
	simC, err := memsim.NewSim(cacheCfg)
	if err != nil {
		return nil, err
	}
	resident.Simulate(simC)
	tr := simC.Traffic()
	props := memsim.KernelProps{Name: "Stream", Flops: resident.Flops(), Threads: 256, MLP: 8, Eff: 0.8}
	withTag, err := memsim.Evaluate(&cacheCfg, tr, props)
	if err != nil {
		return nil, err
	}
	trNoTag := tr
	trNoTag.MCTagLines = 0
	withoutTag, err := memsim.Evaluate(&cacheCfg, trNoTag, props)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "MCDRAM tag overhead: cache-mode %.1f GB/s with tags vs %.1f without (flat>cache %s)\n",
		withTag.MemGBs, withoutTag.MemGBs, presentWord(withTag.MemGBs < withoutTag.MemGBs))
	csv = append(csv, csvLine("tag_overhead", "cache2gb_gbs", f(withTag.MemGBs), f(withoutTag.MemGBs)))

	rep.CSV["ablations.csv"] = csv
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("MLP ramp carves the cache valley (%.1f vs %.1f GB/s without it)", withRamp.MemGBs, withoutRamp.MemGBs),
		fmt.Sprintf("split penalty produces the flat-mode collapse (%.1f vs %.1f GB/s)", withSplit.MemGBs, withoutSplit.MemGBs),
		fmt.Sprintf("in-MCDRAM tags separate cache from flat mode (%.1f vs %.1f GB/s)", withTag.MemGBs, withoutTag.MemGBs))
	rep.Text = b.String()
	return rep, nil
}

func presentWord(ok bool) string {
	if ok {
		return "present"
	}
	return "ABSENT"
}

// logSpace returns n log-spaced int64 values in [lo, hi].
func logSpace(lo, hi int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		out = append(out, int64(float64(lo)*math.Pow(float64(hi)/float64(lo), frac)))
	}
	return out
}
