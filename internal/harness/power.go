package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/plot"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// powerPair is one kernel's (baseline, OPM) representative-input run
// pair. Fields are exported so the persistent store can round-trip it.
type powerPair struct {
	Base, OPM memsim.Result
}

// powerRunner builds Figures 26 (Broadwell) and 27 (KNL): per-kernel
// package and DRAM power with and without the OPM, the geometric-mean
// bars, and the Eq. 1 break-even statement. The per-kernel baseline/OPM
// run pairs are independent, so they go through the sweep engine (one
// job per kernel) and are assembled in kernel order.
func powerRunner(platName string) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		base, opms, _, err := machineSet(platName)
		if err != nil {
			return nil, err
		}
		// The power figures compare the baseline against the primary
		// OPM configuration (eDRAM on Broadwell, flat MCDRAM on KNL).
		opm := opms[len(opms)-1]
		for _, m := range opms {
			if m.Mode == memsim.ModeFlat || m.Mode == memsim.ModeEDRAM {
				opm = m
			}
		}
		model, err := power.ForPlatform(platName)
		if err != nil {
			return nil, err
		}

		cache := cacheFor[string, powerPair](opt, "power",
			machinesHash([]*core.Machine{base, opm}),
			func(kernel string) string { return kernel })
		eng := opt.engine()
		pairs, err := sweep.MapCached(ctx, eng, kernelOrder, cache,
			func(ctx context.Context, w *sweep.Worker, kernel string) (powerPair, error) {
				run, err := representativeWorkload(platName, kernel)
				if err != nil {
					return powerPair{}, err
				}
				// The representative cells gate under the historical
				// power|kernel|platform keys (validate, quarantine).
				key := "power|" + kernel + "|" + platName
				rb, err := run(ctx, eng, w, base, key+"|base")
				if err != nil {
					return powerPair{}, fmt.Errorf("%s baseline: %w", kernel, err)
				}
				ro, err := run(ctx, eng, w, opm, key+"|opm")
				if err != nil {
					return powerPair{}, fmt.Errorf("%s %s: %w", kernel, opm.Mode, err)
				}
				return powerPair{Base: rb, OPM: ro}, nil
			})
		if err != nil {
			// Every kernel row feeds the geometric mean; a hole would
			// shift it, so any failure aborts the figure.
			return nil, err
		}

		var labels []string
		var pkgBase, pkgOPM, dramBase, dramOPM []float64
		var speedups []float64
		csv := []string{csvLine("kernel", "mode", "pkg_w", "dram_w", "gflops", "energy_j")}
		for ki, kernel := range kernelOrder {
			rb, ro := pairs[ki].Base, pairs[ki].OPM
			sb := model.Estimate(rb)
			so := model.Estimate(ro)
			labels = append(labels, kernel)
			pkgBase = append(pkgBase, sb.PkgW)
			pkgOPM = append(pkgOPM, so.PkgW)
			dramBase = append(dramBase, sb.DRAMW)
			dramOPM = append(dramOPM, so.DRAMW)
			speedups = append(speedups, ro.GFlops/rb.GFlops)
			csv = append(csv, csvLine(kernel, base.Mode.String(), f(sb.PkgW), f(sb.DRAMW), f(rb.GFlops), f(model.EnergyJ(rb))))
			csv = append(csv, csvLine(kernel, opm.Mode.String(), f(so.PkgW), f(so.DRAMW), f(ro.GFlops), f(model.EnergyJ(ro))))
		}
		gmB, err := stats.GeoMean(pkgBase)
		if err != nil {
			return nil, err
		}
		gmO, err := stats.GeoMean(pkgOPM)
		if err != nil {
			return nil, err
		}
		labels = append(labels, "GM")
		pkgBase = append(pkgBase, gmB)
		pkgOPM = append(pkgOPM, gmO)

		var b strings.Builder
		b.WriteString(plot.Bars(
			fmt.Sprintf("Package power w/o OPM (%s, W)", platName), labels, pkgBase, 40))
		b.WriteString("\n")
		b.WriteString(plot.Bars(
			fmt.Sprintf("Package power w/ %s (W)", opm.Mode), labels, pkgOPM, 40))
		b.WriteString("\n")
		b.WriteString(plot.Bars("DRAM power w/o OPM (W)", labels[:len(labels)-1], dramBase, 40))
		b.WriteString("\n")
		b.WriteString(plot.Bars(fmt.Sprintf("DRAM power w/ %s (W)", opm.Mode), labels[:len(labels)-1], dramOPM, 40))

		deltaW := gmO - gmB
		deltaPct := deltaW / gmB
		fmt.Fprintf(&b, "\nOPM raises average package power by %.1f W (%.1f%%)\n", deltaW, deltaPct*100)

		rep := &Report{CSV: map[string][]string{fmt.Sprintf("power_%s.csv", platName): csv}}
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"%s: OPM adds %.1f W (%.1f%%) average package power (paper: +5.6 W/+8.6%% eDRAM, +9.8 W/+6.9%% MCDRAM)",
			platName, deltaW, deltaPct*100))
		rep.Findings = append(rep.Findings, eq1Findings(platName, deltaPct))
		savers := 0
		for _, sp := range speedups {
			if power.SavesEnergy(sp-1, deltaPct) {
				savers++
			}
		}
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"%s: %d of %d kernels clear the Eq. 1 energy break-even at their representative input",
			platName, savers, len(speedups)))
		ddrDrop := 0
		for i := range dramBase {
			if dramOPM[i] < dramBase[i] {
				ddrDrop++
			}
		}
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"%s: OPM reduces DRAM-domain power for %d of %d kernels (traffic moved on package)",
			platName, ddrDrop, len(dramBase)))
		rep.Text = b.String()
		return rep, nil
	}
}
