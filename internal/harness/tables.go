package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// kernelOrder is the row order of Tables 4 and 5.
var kernelOrder = []string{"GEMM", "Cholesky", "SpMV", "SpTRANS", "SpTRSV", "Stream", "Stencil", "FFT"}

// kernelSeries returns paired per-input throughput series for one
// kernel across all modes of a platform. Inputs are the kernel's own
// sweep: (order, block) cells for dense kernels, the matrix suite for
// sparse ones, footprint points for Stream/Stencil/FFT.
func kernelSeries(ctx context.Context, platName, kernel string, opt Options) (map[memsim.Mode][]float64, []*core.Machine, error) {
	switch kernel {
	case "GEMM", "Cholesky":
		kind, err := denseKind(kernel)
		if err != nil {
			return nil, nil, err
		}
		base, opms, plat, err := machineSet(platName)
		if err != nil {
			return nil, nil, err
		}
		machines := append([]*core.Machine{base}, opms...)
		orders, blocks := denseGrid(plat, false)
		var jobs []core.DenseJob
		for _, m := range machines {
			for _, n := range orders {
				for _, nb := range blocks {
					jobs = append(jobs, core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb})
				}
			}
		}
		results, err := runDense(ctx, opt, jobs)
		if err != nil {
			return nil, nil, err
		}
		out := map[memsim.Mode][]float64{}
		for i, j := range jobs {
			out[j.Machine.Mode] = append(out[j.Machine.Mode], results[i].GFlops)
		}
		return out, machines, nil
	case "SpMV", "SpTRANS", "SpTRSV":
		pts, machines, _, err := runSparse(ctx, platName, kernel, opt)
		if err != nil {
			return nil, nil, err
		}
		out := map[memsim.Mode][]float64{}
		for _, pt := range pts {
			for mode, v := range pt.GFlops {
				out[mode] = append(out[mode], v)
			}
		}
		return out, machines, nil
	case "Stream", "Stencil", "FFT":
		pts, machines, err := runCurves(ctx, platName, kernel, opt)
		if err != nil {
			return nil, nil, err
		}
		out := map[memsim.Mode][]float64{}
		for _, pt := range pts {
			for mode, v := range pt.GFlops {
				out[mode] = append(out[mode], v)
			}
		}
		return out, machines, nil
	}
	return nil, nil, fmt.Errorf("harness: unknown kernel %q", kernel)
}

// runTable4 reproduces Table 4: per-kernel eDRAM summary statistics on
// Broadwell.
func runTable4(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{ID: "table4", Title: "Table 4", CSV: map[string][]string{}}
	var b strings.Builder
	b.WriteString("Table 4: summarized statistics for applying eDRAM (Broadwell)\n")
	fmt.Fprintf(&b, "%-9s %12s %12s %10s %10s %10s %10s\n",
		"Kernel", "w/o best", "w/ best", "avg gap", "max gap", "avg spdup", "max spdup")
	csv := []string{csvLine("kernel", "best_wo", "best_w", "avg_gap", "max_gap", "avg_speedup", "max_speedup")}
	var avgSpeedups []string
	for _, kernel := range kernelOrder {
		series, _, err := kernelSeries(ctx, "broadwell", kernel, opt)
		if err != nil {
			return nil, err
		}
		sum, err := stats.Summarize(kernel, series[memsim.ModeDDR], series[memsim.ModeEDRAM])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-9s %12.1f %12.1f %10.2f %10.2f %9.3fx %9.3fx\n",
			kernel, sum.BestBase, sum.BestOPM, sum.AvgGap, sum.MaxGap, sum.AvgSpeedup, sum.MaxSpeedup)
		csv = append(csv, csvLine(kernel, f(sum.BestBase), f(sum.BestOPM),
			f(sum.AvgGap), f(sum.MaxGap), f(sum.AvgSpeedup), f(sum.MaxSpeedup)))
		avgSpeedups = append(avgSpeedups, fmt.Sprintf("%s %.3fx", kernel, sum.AvgSpeedup))
		if sum.AvgSpeedup < 0.98 {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("WARNING: %s average eDRAM speedup below 1 (%.3f) — paper observes eDRAM never hurts", kernel, sum.AvgSpeedup))
		}
	}
	b.WriteString("(Stream row is GB/s-equivalent: the paper reports its bandwidth figure.)\n")
	rep.CSV["table4.csv"] = csv
	rep.Findings = append(rep.Findings, "eDRAM average speedups: "+strings.Join(avgSpeedups, ", "))
	rep.Text = b.String()
	return rep, nil
}

// runTable5 reproduces Table 5: per-kernel MCDRAM mode summaries on
// KNL (flat / cache / hybrid against the DDR baseline).
func runTable5(ctx context.Context, opt Options) (*Report, error) {
	rep := &Report{ID: "table5", Title: "Table 5", CSV: map[string][]string{}}
	modes := []memsim.Mode{memsim.ModeFlat, memsim.ModeCache, memsim.ModeHybrid}
	var b strings.Builder
	b.WriteString("Table 5: summarized statistics for MCDRAM modes (KNL), per kernel: flat/cache/hybrid\n")
	fmt.Fprintf(&b, "%-9s %10s %28s %26s %26s\n",
		"Kernel", "ddr best", "best f/c/h", "avg speedup f/c/h", "max speedup f/c/h")
	csv := []string{csvLine("kernel", "ddr_best", "mode", "best", "avg_gap", "max_gap", "avg_speedup", "max_speedup")}
	for _, kernel := range kernelOrder {
		series, _, err := kernelSeries(ctx, "knl", kernel, opt)
		if err != nil {
			return nil, err
		}
		base := series[memsim.ModeDDR]
		var bests, avgs, maxs []string
		ddrBest := 0.0
		for _, v := range base {
			if v > ddrBest {
				ddrBest = v
			}
		}
		for _, mode := range modes {
			sum, err := stats.Summarize(kernel, base, series[mode])
			if err != nil {
				return nil, err
			}
			bests = append(bests, fmt.Sprintf("%.0f", sum.BestOPM))
			avgs = append(avgs, fmt.Sprintf("%.3f", sum.AvgSpeedup))
			maxs = append(maxs, fmt.Sprintf("%.3f", sum.MaxSpeedup))
			csv = append(csv, csvLine(kernel, f(ddrBest), mode.String(), f(sum.BestOPM),
				f(sum.AvgGap), f(sum.MaxGap), f(sum.AvgSpeedup), f(sum.MaxSpeedup)))
		}
		fmt.Fprintf(&b, "%-9s %10.1f %28s %26s %26s\n", kernel, ddrBest,
			strings.Join(bests, "/"), strings.Join(avgs, "/"), strings.Join(maxs, "/"))
	}
	b.WriteString("(Stream row is GB/s-equivalent: the paper reports its bandwidth figure.)\n")
	rep.CSV["table5.csv"] = csv
	rep.Findings = append(rep.Findings,
		"MCDRAM summary computed for flat/cache/hybrid against the DDR baseline")
	rep.Text = b.String()
	return rep, nil
}

// representativeRun evaluates the power figures' single mid-size input
// on one machine: a cell in the OPM-relevant region, estimated by
// core.Exact and gated under key (the name a quarantine error carries).
type representativeRun func(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *core.Machine, key string) (memsim.Result, error)

// representativeWorkload builds the single input used for the power
// figures: a mid-size instance sitting in the OPM-relevant region.
func representativeWorkload(platName, kernel string) (representativeRun, error) {
	_, _, plat, err := machineSet(platName)
	if err != nil {
		return nil, err
	}
	switch kernel {
	case "GEMM", "Cholesky":
		kind, err := denseKind(kernel)
		if err != nil {
			return nil, err
		}
		n := 8192
		if plat.Name == "knl" {
			n = 16384
		}
		return func(ctx context.Context, eng *sweep.Engine, _ *sweep.Worker, m *core.Machine, key string) (memsim.Result, error) {
			return core.Exact.EstimateDense(ctx, eng, core.DenseJob{Machine: m, Kind: kind, N: n, NB: 1024}, key)
		}, nil
	case "SpMV", "SpTRANS", "SpTRSV":
		// A mid-size matrix inside the OPM effective region.
		spec := suite(plat, Options{})[8]
		mat := spec.Instantiate(plat.Scale)
		wl, err := sparseWorkload(kernel, mat)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *core.Machine, key string) (memsim.Result, error) {
			return core.Exact.EstimateCell(ctx, eng, w, m, wl, key)
		}, nil
	case "Stream", "Stencil", "FFT":
		fp := int64(96 << 20) // inside eDRAM region on Broadwell
		if plat.Name == "knl" {
			fp = 4 << 30 // inside MCDRAM on KNL
		}
		wl, err := curveWorkload(kernel, plat.ScaledBytes(fp), plat.Scale)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, m *core.Machine, key string) (memsim.Result, error) {
			return core.Exact.EstimateCell(ctx, eng, w, m, wl, key)
		}, nil
	}
	return nil, fmt.Errorf("harness: unknown kernel %q", kernel)
}
