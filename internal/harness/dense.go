package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// denseGrid returns the paper's (order, block) sweep for a platform
// (Appendix A.2.1/A.2.2): orders 256..16128 step 512 on Broadwell and
// 256..32000 step 1024 on KNL; blocks 128..4096 step 128 on both. The
// analytic dense model is cheap, so quick mode only coarsens the block
// axis.
func denseGrid(p *platform.Platform, full bool) (orders, blocks []int) {
	if p.Name == "broadwell" {
		for n := 256; n <= 16128; n += 512 {
			orders = append(orders, n)
		}
	} else {
		for n := 256; n <= 32000; n += 1024 {
			orders = append(orders, n)
		}
	}
	step := 128
	if !full {
		step = 256
	}
	for nb := 128; nb <= 4096; nb += step {
		blocks = append(blocks, nb)
	}
	return orders, blocks
}

// runDense evaluates analytic dense-model cells on the sweep engine
// through the exact estimator and dense store cache, returning the
// results in submission order.
func runDense(ctx context.Context, opt Options, jobs []core.DenseJob) ([]memsim.Result, error) {
	eng := opt.engine()
	return sweep.MapCached(ctx, eng, jobs, denseCache(opt), func(ctx context.Context, _ *sweep.Worker, j core.DenseJob) (memsim.Result, error) {
		return core.Exact.EstimateDense(ctx, eng, j, core.DenseCellKey(j))
	})
}

func denseKind(kernel string) (trace.DenseKind, error) {
	switch kernel {
	case "GEMM":
		return trace.DenseGEMM, nil
	case "Cholesky":
		return trace.DenseCholesky, nil
	}
	return 0, fmt.Errorf("harness: unknown dense kernel %q", kernel)
}

// denseHeatmapRunner builds Figures 7/8 (Broadwell) and 15/16 (KNL):
// one (block × order) GFlop/s heat map per memory mode. The grid cells
// are submitted to the sweep engine machine-by-machine in row-major
// (block, order) order; results come back in submission order, so the
// assembled heat maps are byte-identical to the sequential nest they
// replace.
func denseHeatmapRunner(platName, kernel string) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		kind, err := denseKind(kernel)
		if err != nil {
			return nil, err
		}
		base, opms, plat, err := machineSet(platName)
		if err != nil {
			return nil, err
		}
		machines := append([]*core.Machine{base}, opms...)
		orders, blocks := denseGrid(plat, opt.Full)

		var jobs []core.DenseJob
		for _, m := range machines {
			for _, nb := range blocks {
				for _, n := range orders {
					jobs = append(jobs, core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb})
				}
			}
		}
		opt.logger().Debug("dense sweep starting", "platform", platName, "kernel", kernel,
			"cells", len(jobs))
		sp := opt.Obs.StartSpan("dense/" + platName + "/" + kernel + "/sweep") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the dense/<plat>/<kernel> namespace is enumerable
		results, err := runDense(ctx, opt, jobs)
		sp.End()
		if err != nil {
			// Dense cells fail only for systematic reasons (bad grid or
			// tuning), so any failure aborts the heat map.
			return nil, err
		}

		rep := &Report{CSV: map[string][]string{}}
		render := opt.Obs.StartSpan("dense/" + platName + "/" + kernel + "/render") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the dense/<plat>/<kernel> namespace is enumerable
		defer render.End()
		var b strings.Builder
		idx := 0
		for _, m := range machines {
			grid := make([][]float64, len(blocks))
			csv := []string{csvLine("order", "block", "gflops", "bound")}
			peak := 0.0
			peakN, peakNB := 0, 0
			for bi, nb := range blocks {
				grid[bi] = make([]float64, len(orders))
				for oi, n := range orders {
					r := results[idx]
					idx++
					grid[bi][oi] = r.GFlops
					if r.GFlops > peak {
						peak, peakN, peakNB = r.GFlops, n, nb
					}
					csv = append(csv, csvLine(fmt.Sprint(n), fmt.Sprint(nb), f(r.GFlops), string(r.Bound)))
				}
			}
			label := fmt.Sprintf("%s %s (%s)", kernel, platName, m.Mode)
			b.WriteString(plot.Heatmap(
				fmt.Sprintf("%s GFlop/s heat map — peak %.1f at n=%d nb=%d", label, peak, peakN, peakNB),
				grid, "matrix order", "block size"))
			b.WriteString("\n")
			rep.CSV[fmt.Sprintf("%s_%s_%s.csv", strings.ToLower(kernel), platName, m.Mode)] = csv
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("%s best: %.1f GFlop/s (n=%d, nb=%d)", label, peak, peakN, peakNB))
		}
		rep.Text = b.String()
		return rep, nil
	}
}
