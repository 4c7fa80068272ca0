package harness

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/plot"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// suite selects the matrix collection for one platform run. The paper
// uses all 968 UF matrices; quick mode subsamples, and Broadwell drops
// the multi-GB tail its figures do not reach.
func suite(p *platform.Platform, opt Options) []sparse.Spec {
	specs := sparse.Collection()
	if p.Name == "broadwell" {
		specs = sparse.FilterMaxFootprint(specs, 1<<30)
	}
	if opt.MaxPaperFootprint > 0 {
		specs = sparse.FilterMaxFootprint(specs, opt.MaxPaperFootprint)
	}
	stride := 16
	if opt.Full {
		stride = 1
	}
	if opt.Stride > 0 {
		stride = opt.Stride
	}
	return sparse.Subsample(specs, stride)
}

// sparseWorkload builds the trace workload of a sparse kernel for one
// instantiated matrix.
func sparseWorkload(kernel string, m *sparse.CSR) (trace.Workload, error) {
	switch kernel {
	case "SpMV":
		return &trace.SpMV{M: m}, nil
	case "SpTRANS":
		return &trace.SpTRANS{M: m}, nil
	case "SpTRSV":
		return trace.NewSpTRSV(m)
	}
	return nil, fmt.Errorf("harness: unknown sparse kernel %q", kernel)
}

// sparsePoint is one matrix × one machine observation.
type sparsePoint struct {
	Spec      sparse.Spec
	Rows, NNZ int
	Footprint int64 // reported (paper) scale
	GFlops    map[memsim.Mode]float64
}

// sparseJobHook, when non-nil, runs before each sparse job and may
// fail it — the test seam for the sweep's partial-failure reporting
// (every dropped matrix must surface as a report warning).
var sparseJobHook func(sparse.Spec) error

// runSparse sweeps the suite over all modes of a platform on the sweep
// engine: one job per matrix, each job driving every mode through one
// EstimateMachines call on its worker's pooled simulators. A failing
// matrix is dropped from the sweep (returned in errs) instead of
// killing it; only cancellation or systematic failure aborts. Each
// finished job snapshots its simulators' per-level counters into
// opt.Obs.
func runSparse(ctx context.Context, platName, kernel string, opt Options) ([]sparsePoint, []*core.Machine, sweep.Errors, error) {
	base, opms, plat, err := machineSet(platName)
	if err != nil {
		return nil, nil, nil, err
	}
	machines := append([]*core.Machine{base}, opms...)
	specs := suite(plat, opt)
	opt.logger().Debug("sparse sweep starting", "platform", platName, "kernel", kernel,
		"matrices", len(specs), "modes", len(machines))
	// Jobs are keyed by matrix name under the machine-set hash (the
	// spec plus plat.Scale fully determine the instantiated matrix),
	// so table4/5 reuse the figures' entries and quick/full runs
	// share their common matrices.
	cache := cacheFor[sparse.Spec, sparsePoint](opt, "sparse/"+kernel,
		machinesHash(machines, plat.Scale),
		func(s sparse.Spec) string { return s.Name })
	eng := opt.engine()
	sp := opt.Obs.StartSpan("sparse/" + platName + "/" + kernel + "/sweep") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the sparse/<plat>/<kernel> namespace is enumerable
	results, runErr := sweep.MapCached(ctx, eng, specs, cache,
		func(ctx context.Context, w *sweep.Worker, spec sparse.Spec) (sparsePoint, error) {
			if sparseJobHook != nil {
				if err := sparseJobHook(spec); err != nil {
					return sparsePoint{}, err
				}
			}
			return sparseCell(ctx, eng, w, plat, machines, kernel, spec)
		})
	sp.End()
	points, errs, err := sweep.Compact(results, runErr)
	if err != nil {
		return nil, nil, errs, err
	}
	if len(errs) > 0 {
		opt.logger().Warn("sparse sweep dropped matrices", "platform", platName,
			"kernel", kernel, "dropped", len(errs), "kept", len(points))
	}
	return points, machines, errs, nil
}

// sparseCell is the body of one sparse sweep job: instantiate spec's
// matrix at plat's scale, build kernel's trace workload over it, and
// evaluate it on every machine through one Exact.EstimateMachines call
// on w's pooled simulators.
func sparseCell(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, plat *platform.Platform, machines []*core.Machine, kernel string, spec sparse.Spec) (sparsePoint, error) {
	m, err := spec.Checked(plat.Scale)
	if err != nil {
		return sparsePoint{}, err
	}
	wl, err := sparseWorkload(kernel, m)
	if err != nil {
		return sparsePoint{}, err
	}
	// Every mode's cell runs through the result gate: validate,
	// quarantine on violation.
	rs, err := core.Exact.EstimateMachines(ctx, eng, w, machines, wl, func(mach *core.Machine) string {
		return spec.Name + "|" + mach.Label()
	})
	if err != nil {
		return sparsePoint{}, fmt.Errorf("%s on %s: %w", spec.Name, machines[len(rs)].Label(), err)
	}
	pt := sparsePoint{
		Spec: spec,
		Rows: m.Rows,
		NNZ:  m.NNZ(),
		// Structure axes are reported at paper scale too: the
		// suite's instantiation shrinks rows/nnz by ~Scale.
		Footprint: 0,
		GFlops:    map[memsim.Mode]float64{},
	}
	for i, mach := range machines {
		pt.GFlops[mach.Mode] = rs[i].GFlops
		pt.Footprint = rs[i].FootprintBytes
	}
	return pt, nil
}

// sparseRunner builds Figures 9–11 (Broadwell) and 17–22 (KNL): raw
// throughput vs footprint, speedups vs the DDR baseline, and the
// rows×nnz structure heat map.
func sparseRunner(platName, kernel string) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		points, machines, errs, err := runSparse(ctx, platName, kernel, opt)
		if err != nil {
			return nil, err
		}
		if len(points) == 0 {
			return nil, fmt.Errorf("harness: empty sparse suite")
		}
		rep := &Report{CSV: map[string][]string{}}
		sweepWarning(rep, errs)
		render := opt.Obs.StartSpan("sparse/" + platName + "/" + kernel + "/render") //opmlint:allow counternames — platform and kernel come from the closed registry roster; the sparse/<plat>/<kernel> namespace is enumerable
		defer render.End()
		var b strings.Builder

		// Raw throughput scatter (per mode).
		var rawSeries []plot.Series
		csv := []string{csvLine("matrix", "family", "rows", "nnz", "footprint_mb", "mode", "gflops")}
		for _, mach := range machines {
			s := plot.Series{Name: mach.Mode.String()}
			for _, pt := range points {
				fpMB := float64(pt.Footprint) / (1 << 20)
				s.X = append(s.X, fpMB)
				s.Y = append(s.Y, pt.GFlops[mach.Mode])
				csv = append(csv, csvLine(pt.Spec.Name, pt.Spec.Family.String(),
					fmt.Sprint(pt.Rows), fmt.Sprint(pt.NNZ), f(fpMB),
					mach.Mode.String(), f(pt.GFlops[mach.Mode])))
			}
			rawSeries = append(rawSeries, s)
		}
		b.WriteString(plot.Lines(
			fmt.Sprintf("%s on %s: GFlop/s vs memory footprint (MB, paper scale), %d matrices",
				kernel, platName, len(points)),
			rawSeries, 72, 16, true))
		b.WriteString("\n")
		rep.CSV[fmt.Sprintf("%s_%s_raw.csv", strings.ToLower(kernel), platName)] = csv

		// Speedups vs the DDR baseline.
		var spSeries []plot.Series
		for _, mach := range machines[1:] {
			s := plot.Series{Name: mach.Mode.String() + "/ddr"}
			for _, pt := range points {
				base := pt.GFlops[memsim.ModeDDR]
				if base <= 0 {
					continue
				}
				s.X = append(s.X, float64(pt.Footprint)/(1<<20))
				s.Y = append(s.Y, pt.GFlops[mach.Mode]/base)
			}
			spSeries = append(spSeries, s)
		}
		b.WriteString(plot.Lines(
			fmt.Sprintf("%s on %s: speedup vs footprint (MB)", kernel, platName),
			spSeries, 72, 12, true))
		b.WriteString("\n")

		// Structure heat map: rows × nnz binned mean throughput of the
		// best OPM mode (Figures 9–11 bottom / 20–22).
		opmMode := machines[len(machines)-1].Mode
		var xs, ys, vs []float64
		for _, pt := range points {
			xs = append(xs, float64(pt.NNZ))
			ys = append(ys, float64(pt.Rows))
			vs = append(vs, pt.GFlops[opmMode])
		}
		grid, err := stats.BinLog2D(xs, ys, vs, 18, 10)
		if err != nil {
			return nil, err
		}
		b.WriteString(plot.Heatmap(
			fmt.Sprintf("%s on %s (%s): mean GFlop/s by structure", kernel, platName, opmMode),
			grid.Mean, "log10 nonzeros", "log10 rows"))

		// Findings: where the best structure region sits.
		rep.Findings = append(rep.Findings, structureFinding(kernel, platName, grid))
		for _, mach := range machines[1:] {
			var bases, opms []float64
			for _, pt := range points {
				bases = append(bases, pt.GFlops[memsim.ModeDDR])
				opms = append(opms, pt.GFlops[mach.Mode])
			}
			if sum, err := stats.Summarize(kernel, bases, opms); err == nil {
				rep.Findings = append(rep.Findings, fmt.Sprintf(
					"%s %s vs ddr: best %.3g vs %.3g GFlop/s, avg speedup %.3fx, max %.3fx",
					kernel, mach.Mode, sum.BestOPM, sum.BestBase, sum.AvgSpeedup, sum.MaxSpeedup))
			}
		}
		rep.Text = b.String()
		return rep, nil
	}
}

// structureFinding locates the hottest structure-bin (the paper's
// "peak performance region concentrates at ..." observations).
func structureFinding(kernel, platName string, g stats.Grid2D) string {
	bestV := math.Inf(-1)
	bx, by := 0, 0
	for j := range g.Mean {
		for i := range g.Mean[j] {
			if !math.IsNaN(g.Mean[j][i]) && g.Mean[j][i] > bestV {
				bestV, bx, by = g.Mean[j][i], i, j
			}
		}
	}
	return fmt.Sprintf("%s %s: hottest structure bin near nnz=10^%.1f, rows=10^%.1f (%.3g GFlop/s)",
		kernel, platName, (g.XEdges[bx]+g.XEdges[bx+1])/2, (g.YEdges[by]+g.YEdges[by+1])/2, bestV)
}
