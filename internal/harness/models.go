package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/power"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/stepping"
	"repro/internal/trace"
)

// runTable2 renders Table 2 and the Figure 4 AI spectrum.
func runTable2(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "table2", Title: "Table 2 / Fig 4", CSV: map[string][]string{}}
	var b strings.Builder
	b.WriteString("Table 2: Scientific kernel characteristics (n=1024, nnz=1024, M=32)\n")
	for _, row := range roofline.FormatTable2(roofline.DefaultProblem) {
		b.WriteString(row + "\n")
	}
	b.WriteString("\nFig 4: arithmetic intensity spectrum (flops/byte, ascending)\n")
	type pt struct {
		name string
		ai   float64
	}
	var pts []pt
	for _, c := range roofline.Table2() {
		pts = append(pts, pt{c.Algorithm, c.AI(roofline.DefaultProblem)})
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[j].ai < pts[i].ai {
				pts[i], pts[j] = pts[j], pts[i]
			}
		}
	}
	csv := []string{csvLine("kernel", "ai")}
	for _, p := range pts {
		fmt.Fprintf(&b, "  %-9s %10.5g\n", p.name, p.ai)
		csv = append(csv, csvLine(p.name, f(p.ai)))
	}
	rep.CSV["table2_ai.csv"] = csv
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("AI spectrum spans %.4g (Stream) to %.4g (GEMM), matching Table 2", pts[0].ai, pts[len(pts)-1].ai))
	rep.Text = b.String()
	return rep, nil
}

// runFig5 renders the roofline for both platforms with and without the
// OPM bandwidth ceiling.
func runFig5(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "fig5", Title: "Fig 5", CSV: map[string][]string{}}
	var b strings.Builder
	for _, p := range platform.All() {
		m := roofline.New(p)
		pts := roofline.Points(p)
		var dram, opm plot.Series
		dram.Name = p.DRAMKind
		opm.Name = p.OPMKind
		csv := []string{csvLine("kernel", "ai", "gflops_dram", "gflops_opm")}
		for _, pt := range pts {
			dram.X = append(dram.X, pt.AI)
			dram.Y = append(dram.Y, pt.DRAMGFlops)
			opm.X = append(opm.X, pt.AI)
			opm.Y = append(opm.Y, pt.WithOPMGFlops)
			csv = append(csv, csvLine(pt.Kernel, f(pt.AI), f(pt.DRAMGFlops), f(pt.WithOPMGFlops)))
		}
		rep.CSV["fig5_"+p.Name+".csv"] = csv
		b.WriteString(plot.Lines(
			fmt.Sprintf("Fig 5 (%s): attainable DP GFlop/s vs AI; ridge DRAM at %.2f, OPM at %.2f",
				p.Name, m.Ridge(p.DRAMGBs), m.Ridge(p.OPMGBs)),
			[]plot.Series{dram, opm}, 64, 12, true))
		b.WriteString("\n")
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"%s: OPM moves the roofline ridge from AI %.2f to %.2f, lifting all kernels below it",
			p.Name, m.Ridge(p.DRAMGBs), m.Ridge(p.OPMGBs)))
	}
	rep.Text = b.String()
	return rep, nil
}

// steppingLevels builds the analytic level stack of a platform+mode
// (paper-scale capacities).
func steppingLevels(p *platform.Platform, mode memsim.Mode) ([]stepping.Level, error) {
	scaled, err := p.Config(mode)
	if err != nil {
		return nil, fmt.Errorf("stepping levels for %s/%s: %w", p.Name, mode, err)
	}
	cfg := trace.UnscaledConfig(scaled)
	var ls []stepping.Level
	ls = append(ls, stepping.Level{Name: "L2", Cap: cfg.L2.Size,
		BWGBs: cfg.Links[memsim.SrcL2].BWGBs, LatNS: cfg.Links[memsim.SrcL2].LatNS})
	if cfg.L3.Size > 0 {
		ls = append(ls, stepping.Level{Name: "L3", Cap: cfg.L3.Size,
			BWGBs: cfg.Links[memsim.SrcL3].BWGBs, LatNS: cfg.Links[memsim.SrcL3].LatNS})
	}
	switch mode {
	case memsim.ModeEDRAM:
		ls = append(ls, stepping.Level{Name: "eDRAM", Cap: cfg.EDRAM.Size,
			BWGBs: cfg.Links[memsim.SrcEDRAM].BWGBs, LatNS: cfg.Links[memsim.SrcEDRAM].LatNS, OPM: true})
	case memsim.ModeCache:
		ls = append(ls, stepping.Level{Name: "MCDRAM$", Cap: cfg.MCDRAMBytes,
			BWGBs: cfg.Links[memsim.SrcMCDRAM].BWGBs, LatNS: cfg.Links[memsim.SrcMCDRAM].LatNS, OPM: true})
	case memsim.ModeHybrid:
		ls = append(ls, stepping.Level{Name: "MCDRAM$/2", Cap: cfg.MCDRAMBytes / 2,
			BWGBs: cfg.Links[memsim.SrcMCDRAM].BWGBs, LatNS: cfg.Links[memsim.SrcMCDRAM].LatNS, OPM: true})
	}
	ls = append(ls, stepping.Level{Name: "DDR", Cap: 0,
		BWGBs: cfg.Links[memsim.SrcDDR].BWGBs, LatNS: cfg.Links[memsim.SrcDDR].LatNS})
	return ls, nil
}

func steppingStream(peak float64) stepping.Kernel {
	return stepping.Kernel{Name: "Stream", AI: 0.0625, PeakGFlops: peak, MLP: 64, RampFactor: 6}
}

// runFig6 renders the illustrative Stepping model: one cache level
// (panel A) and two cache levels (panel B).
func runFig6(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "Fig 6", CSV: map[string][]string{}}
	k := steppingStream(100)
	oneLevel := []stepping.Level{
		{Name: "cache", Cap: 8 << 20, BWGBs: 150, LatNS: 10},
		{Name: "mem", Cap: 0, BWGBs: 20, LatNS: 90},
	}
	twoLevel := []stepping.Level{
		{Name: "L2", Cap: 1 << 20, BWGBs: 300, LatNS: 4},
		{Name: "L3", Cap: 8 << 20, BWGBs: 150, LatNS: 12},
		{Name: "mem", Cap: 0, BWGBs: 20, LatNS: 90},
	}
	a, err := stepping.Model("one cache", oneLevel, k, 1<<18, 1<<30, 64)
	if err != nil {
		return nil, fmt.Errorf("fig6 one-cache curve: %w", err)
	}
	bCurve, err := stepping.Model("two caches", twoLevel, k, 1<<18, 1<<30, 64)
	if err != nil {
		return nil, fmt.Errorf("fig6 two-cache curve: %w", err)
	}
	var sb strings.Builder
	sb.WriteString(plot.Lines("Fig 6(A): cache peak, valley, memory plateau",
		[]plot.Series{curveSeries(a)}, 64, 12, true))
	sb.WriteString("\n")
	sb.WriteString(plot.Lines("Fig 6(B): a peak/valley pair per cache level",
		[]plot.Series{curveSeries(bCurve)}, 64, 12, true))
	rep.CSV["fig6.csv"] = curveCSV(map[string]stepping.Curve{"one": a, "two": bCurve})
	rep.Findings = append(rep.Findings,
		"Stepping model reproduces cache peaks, post-capacity valleys and bandwidth plateaus")
	rep.Text = sb.String()
	return rep, nil
}

func curveSeries(c stepping.Curve) plot.Series {
	s := plot.Series{Name: c.Name}
	for _, p := range c.Points {
		s.X = append(s.X, float64(p.Footprint))
		s.Y = append(s.Y, p.GFlops)
	}
	return s
}

func curveCSV(curves map[string]stepping.Curve) []string {
	// Emit series in sorted-name order: map iteration order would make
	// the CSV differ run to run, breaking the byte-identical contract.
	names := make([]string, 0, len(curves))
	for name := range curves {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := []string{csvLine("curve", "footprint_bytes", "gflops", "gbs", "serving")}
	for _, name := range names {
		for _, p := range curves[name].Points {
			lines = append(lines, csvLine(name, i64(p.Footprint), f(p.GFlops), f(p.GBs), p.Serving))
		}
	}
	return lines
}

// runFig1 samples the Broadwell GEMM (order, block) grid with and
// without eDRAM and estimates the density of achievable GFlop/s.
func runFig1(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{ID: "fig1", Title: "Fig 1", CSV: map[string][]string{}}
	brd := platform.Broadwell()
	orders, blocks := denseGrid(brd, opt.Full)
	sample := func(mode memsim.Mode) ([]float64, error) {
		m, err := core.NewMachine(brd, mode)
		if err != nil {
			return nil, err
		}
		var jobs []core.DenseJob
		for _, n := range orders {
			for _, nb := range blocks {
				jobs = append(jobs, core.DenseJob{Machine: m, Kind: trace.DenseGEMM, N: n, NB: nb})
			}
		}
		results, err := runDense(ctx, opt, jobs)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = r.GFlops
		}
		return vals, nil
	}
	without, err := sample(memsim.ModeDDR)
	if err != nil {
		return nil, err
	}
	with, err := sample(memsim.ModeEDRAM)
	if err != nil {
		return nil, err
	}
	peak := stats.Quantile(append(append([]float64{}, with...), without...), 1)
	fw := stats.FractionAbove(with, 0.9*peak)
	fo := stats.FractionAbove(without, 0.9*peak)
	dw, err := stats.KDE(with, 96)
	if err != nil {
		return nil, err
	}
	do, err := stats.KDE(without, 96)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString(plot.Lines(
		fmt.Sprintf("Fig 1: density of achievable GEMM GFlop/s over %d samples", len(with)),
		[]plot.Series{{Name: "w/o eDRAM", X: do.X, Y: do.Y}, {Name: "w/ eDRAM", X: dw.X, Y: dw.Y}},
		72, 14, false))
	fmt.Fprintf(&b, "\nfraction of samples above 90%% of peak: w/o eDRAM %.3f, w/ eDRAM %.3f\n", fo, fw)
	csv := []string{csvLine("x_gflops", "density_wo", "density_w")}
	for i := range dw.X {
		csv = append(csv, csvLine(f(do.X[i]), f(do.Y[i]), f(dw.Y[i])))
	}
	rep.CSV["fig1_density.csv"] = csv
	rep.Findings = append(rep.Findings, fmt.Sprintf(
		"eDRAM raises the share of near-peak (>90%%) GEMM samples from %.1f%% to %.1f%%; raw peak moves only %.3gx",
		fo*100, fw*100, stats.Quantile(with, 1)/stats.Quantile(without, 1)))
	rep.Text = b.String()
	return rep, nil
}

// runFig28 renders the eDRAM tuning curves with PER/EER regions.
func runFig28(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "fig28", Title: "Fig 28", CSV: map[string][]string{}}
	brd := platform.Broadwell()
	k := steppingStream(200)
	edramLevels, err := steppingLevels(brd, memsim.ModeEDRAM)
	if err != nil {
		return nil, err
	}
	ddrLevels, err := steppingLevels(brd, memsim.ModeDDR)
	if err != nil {
		return nil, err
	}
	with, err := stepping.Model("w/ eDRAM", edramLevels, k, 1<<20, 2<<30, 128)
	if err != nil {
		return nil, fmt.Errorf("fig28 eDRAM curve: %w", err)
	}
	without, err := stepping.Model("w/o eDRAM", ddrLevels, k, 1<<20, 2<<30, 128)
	if err != nil {
		return nil, fmt.Errorf("fig28 DDR curve: %w", err)
	}
	perLo, perHi, _ := stepping.EffectiveRegion(with, without, 1.0001)
	// Eq. 1: Broadwell eDRAM adds ~8.6% power, so the energy-effective
	// region needs >8.6% speedup.
	eerLo, eerHi, _ := stepping.EffectiveRegion(with, without, 1+0.086)
	var b strings.Builder
	b.WriteString(plot.Lines("Fig 28: eDRAM tuning via Stepping model (Stream-like kernel)",
		[]plot.Series{curveSeries(without), curveSeries(with)}, 72, 14, true))
	fmt.Fprintf(&b, "\nPER (performance-effective region): %d MB .. %d MB\n", perLo>>20, perHi>>20)
	fmt.Fprintf(&b, "EER (energy-effective region, Eq. 1 at +8.6%% power): %d MB .. %d MB\n", eerLo>>20, eerHi>>20)
	rep.CSV["fig28.csv"] = curveCSV(map[string]stepping.Curve{"with": with, "without": without})
	rep.Findings = append(rep.Findings, fmt.Sprintf(
		"EER [%d..%d MB] is narrower than PER [%d..%d MB], as Fig 28(A) argues",
		eerLo>>20, eerHi>>20, perLo>>20, perHi>>20))
	rep.Text = b.String()
	return rep, nil
}

// runFig29 renders the MCDRAM mode guideline curves.
func runFig29(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "fig29", Title: "Fig 29", CSV: map[string][]string{}}
	knl := platform.KNL()
	k := steppingStream(800)
	minFP, maxFP := int64(1<<22), int64(64)<<30
	levelsFor := func(mode memsim.Mode) ([]stepping.Level, error) { return steppingLevels(knl, mode) }
	curves := map[string]stepping.Curve{}
	// Iterate an explicitly ordered slice, not a map literal: the
	// first model error reported must be the same one on every run
	// (and opmlint's rangesort check bans map-literal iteration).
	for _, mc := range []struct {
		name, label string
		mode        memsim.Mode
	}{
		{"ddr", "w/o MCDRAM", memsim.ModeDDR},
		{"cache", "cache", memsim.ModeCache},
		{"hybrid", "hybrid", memsim.ModeHybrid},
	} {
		ls, err := levelsFor(mc.mode)
		if err != nil {
			return nil, err
		}
		c, err := stepping.Model(mc.label, ls, k, minFP, maxFP, 128)
		if err != nil {
			return nil, fmt.Errorf("fig29 %s curve: %w", mc.name, err)
		}
		curves[mc.name] = c
	}
	// Flat mode: MCDRAM is memory while resident, split pathology past
	// capacity. Model as MCDRAM-memory below 16GB, penalized beyond.
	ddrLevels, err := levelsFor(memsim.ModeDDR)
	if err != nil {
		return nil, err
	}
	flatLevels := []stepping.Level{
		ddrLevels[0],
		{Name: "MCDRAM", Cap: 0, BWGBs: 450, LatNS: 155},
	}
	flat, err := stepping.Model("flat", flatLevels, k, minFP, maxFP, 128)
	if err != nil {
		return nil, fmt.Errorf("fig29 flat curve: %w", err)
	}
	for i := range flat.Points {
		if flat.Points[i].Footprint > 16<<30 {
			flat.Points[i].GFlops /= 6 // split-allocation pathology
			flat.Points[i].GBs /= 6
			flat.Points[i].Serving = "split"
		}
	}
	curves["flat"] = flat
	var b strings.Builder
	b.WriteString(plot.Lines("Fig 29: MCDRAM tuning via Stepping model (Stream-like kernel)",
		[]plot.Series{
			curveSeries(curves["ddr"]), curveSeries(curves["cache"]),
			curveSeries(curves["flat"]), curveSeries(curves["hybrid"]),
		}, 72, 16, true))
	b.WriteString("\nGuidelines (Section 6): flat best when data < 16GB; hybrid best when hot set < 8GB\n" +
		"but data > 16GB; cache best for large data with locality; flat collapses when split.\n")
	rep.CSV["fig29.csv"] = curveCSV(curves)
	rep.Findings = append(rep.Findings,
		"Mode ordering matches Section 6: flat > cache below capacity; flat collapses past 16GB; hybrid degrades gracefully")
	rep.Text = b.String()
	return rep, nil
}

// runFig30 renders the hardware what-ifs: scaling OPM capacity and
// bandwidth.
func runFig30(_ context.Context, _ Options) (*Report, error) {
	rep := &Report{ID: "fig30", Title: "Fig 30", CSV: map[string][]string{}}
	brd := platform.Broadwell()
	k := steppingStream(200)
	base, err := steppingLevels(brd, memsim.ModeEDRAM)
	if err != nil {
		return nil, err
	}
	minFP, maxFP := int64(1<<20), int64(4)<<30
	curves := map[string]stepping.Curve{}
	for _, v := range []struct {
		key, label string
		levels     []stepping.Level
	}{
		{"base", "eDRAM 128MB/72GBs", base},
		{"cap2", "2x capacity", stepping.ScaleCapacity(base, "eDRAM", 2)},
		{"bw2", "2x bandwidth", stepping.ScaleBandwidth(base, "eDRAM", 2)},
	} {
		c, err := stepping.Model(v.label, v.levels, k, minFP, maxFP, 128)
		if err != nil {
			return nil, fmt.Errorf("fig30 %s curve: %w", v.key, err)
		}
		curves[v.key] = c
	}
	var b strings.Builder
	b.WriteString(plot.Lines("Fig 30: tuning eDRAM hardware for throughput",
		[]plot.Series{curveSeries(curves["base"]), curveSeries(curves["cap2"]), curveSeries(curves["bw2"])},
		72, 14, true))
	b.WriteString("\n(A) 2x capacity scales the cache peak rightward; (B) 2x bandwidth amplifies it.\n")
	rep.CSV["fig30.csv"] = curveCSV(curves)
	rep.Findings = append(rep.Findings,
		"Capacity scaling extends the eDRAM peak; bandwidth scaling amplifies it (Fig 30 A/B)")
	rep.Text = b.String()
	return rep, nil
}

// eq1Findings computes the Eq. 1 break-even statement for a measured
// power increase.
func eq1Findings(platName string, powerIncrease float64) string {
	return fmt.Sprintf("%s: Eq. 1 break-even — OPM saves energy only when speedup exceeds %.1f%%",
		platName, power.BreakEvenGain(powerIncrease)*100)
}
