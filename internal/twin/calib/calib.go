// Package calib measures the analytic twin against the exact
// simulator over a paper-shaped grid: the Stream/Stencil/FFT footprint
// curves, a subsample of the sparse suite, and the dense tile grid,
// across every platform × mode. Its per-family MAPE and Pearson r are
// the numbers the escalation policy (twin.Escalating) and the CI
// regression gate (scripts/calib-baseline.json) consume.
package calib

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/twin"
)

// Options scales the calibration grid. The zero value is the quick
// grid used by `make calib` and the CI gate; Full is the denser grid
// for re-baselining after a model change.
type Options struct {
	Full bool
	// MaxPaperFootprint caps curve and sparse cells (reported scale);
	// 0 means 256 MB quick, 1 GB full.
	MaxPaperFootprint int64
	// Platforms defaults to platform.All() (Broadwell + KNL).
	Platforms []*platform.Platform
}

// Cell is one calibrated grid point: the exact and twin GFlop/s of the
// same (workload, machine) cell.
type Cell struct {
	Family string  `json:"family"`
	Label  string  `json:"label"`
	Exact  float64 `json:"exact_gflops"`
	Twin   float64 `json:"twin_gflops"`
}

// FamilyReport is the calibration verdict for one kernel family.
type FamilyReport struct {
	Family string  `json:"family"`
	Cells  int     `json:"cells"`
	MAPE   float64 `json:"mape"`
	R      float64 `json:"pearson_r"`
}

// Report is one calibration run: every grid cell plus the per-family
// reductions, sorted by family name.
type Report struct {
	ExactVersion string         `json:"exact_version"`
	TwinVersion  string         `json:"twin_version"`
	Families     []FamilyReport `json:"families"`
	Cells        []Cell         `json:"cells,omitempty"`
}

// Run sweeps the calibration grid and reduces it per family. Cells the
// exact path cannot run (an unsupported workload would be a bug, a
// degenerate matrix is not) are skipped only when both estimators
// agree the cell is invalid; disagreement is an error.
func Run(ctx context.Context, opt Options) (*Report, error) {
	maxFP := opt.MaxPaperFootprint
	if maxFP == 0 {
		maxFP = 256 << 20
		if opt.Full {
			maxFP = 1 << 30
		}
	}
	plats := opt.Platforms
	if plats == nil {
		plats = platform.All()
	}
	var cells []Cell
	for _, plat := range plats {
		machines, err := core.Machines(plat)
		if err != nil {
			return nil, err
		}
		c, err := curveCells(ctx, plat, machines, maxFP, opt.Full)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
		c, err = sparseCells(ctx, plat, machines, maxFP, opt.Full)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
		c, err = denseCells(ctx, machines, opt.Full)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c...)
	}
	return reduce(cells)
}

// curveCells calibrates the footprint-parameterized streaming families
// over a log-spaced span of the paper's curve figures.
func curveCells(ctx context.Context, plat *platform.Platform, machines []*core.Machine, maxFP int64, full bool) ([]Cell, error) {
	minFP := int64(1 << 20)
	if plat.Name == "knl" {
		minFP = 8 << 20
	}
	points := 6
	if full {
		points = 12
	}
	var cells []Cell
	for _, fp := range logSpace(minFP, maxFP, points) {
		simFP := plat.ScaledBytes(fp)
		for _, kernel := range []string{"Stream", "Stencil", "FFT"} {
			var wl trace.Workload
			switch kernel {
			case "Stream":
				wl = trace.NewStream(simFP)
			case "Stencil":
				wl = trace.NewStencil(simFP, plat.Scale)
			case "FFT":
				wl = trace.NewFFT(simFP)
			}
			c, err := calibrateCells(ctx, machines, wl, func(m *core.Machine) string {
				return fmt.Sprintf("%s|fp=%d|%s", kernel, fp, m.Label())
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, c...)
		}
	}
	return cells, nil
}

// sparseCells calibrates SpMV/SpTRANS/SpTRSV over a subsample of the
// matrix collection, instantiated at the platform's simulation scale.
func sparseCells(ctx context.Context, plat *platform.Platform, machines []*core.Machine, maxFP int64, full bool) ([]Cell, error) {
	stride := 200
	if full {
		stride = 48
	}
	specs := sparse.Subsample(sparse.FilterMaxFootprint(sparse.Collection(), maxFP), stride)
	var cells []Cell
	for _, spec := range specs {
		csr := spec.Instantiate(plat.Scale)
		for _, kernel := range []string{"SpMV", "SpTRANS", "SpTRSV"} {
			var wl trace.Workload
			switch kernel {
			case "SpMV":
				wl = &trace.SpMV{M: csr}
			case "SpTRANS":
				wl = &trace.SpTRANS{M: csr}
			case "SpTRSV":
				w, err := trace.NewSpTRSV(csr)
				if err != nil {
					return nil, fmt.Errorf("calib: %s: %w", spec.Name, err)
				}
				wl = w
			}
			c, err := calibrateCells(ctx, machines, wl, func(m *core.Machine) string {
				return fmt.Sprintf("%s|%s|%s", kernel, spec.Name, m.Label())
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, c...)
		}
	}
	return cells, nil
}

// denseCells calibrates GEMM/Cholesky on a small paper-scale tile
// grid: both sides are analytic, so the cost is negligible.
func denseCells(ctx context.Context, machines []*core.Machine, full bool) ([]Cell, error) {
	ns := []int{2048, 8192}
	if full {
		ns = append(ns, 16384)
	}
	nbs := []int{256, 1024, 4096}
	var tw twin.Estimator
	var cells []Cell
	for _, m := range machines {
		for _, kind := range []trace.DenseKind{trace.DenseGEMM, trace.DenseCholesky} {
			for _, n := range ns {
				for _, nb := range nbs {
					if nb > n {
						continue
					}
					j := core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb}
					key := core.DenseCellKey(j)
					exact, err := core.Exact.EstimateDense(ctx, nil, j, key)
					if err != nil {
						return nil, fmt.Errorf("calib: exact %s: %w", key, err)
					}
					pred, err := tw.EstimateDense(ctx, nil, j, key)
					if err != nil {
						return nil, fmt.Errorf("calib: twin %s: %w", key, err)
					}
					cells = append(cells, Cell{
						Family: twin.Family(kind.String()), Label: key,
						Exact: exact.GFlops, Twin: pred.GFlops,
					})
				}
			}
		}
	}
	return cells, nil
}

// calibrateCells runs one trace cell through both estimators on every
// machine, labelled per machine: the exact side is one EstimateMachines
// call.
func calibrateCells(ctx context.Context, machines []*core.Machine, wl trace.Workload, label func(*core.Machine) string) ([]Cell, error) {
	exact, err := core.Exact.EstimateMachines(ctx, nil, nil, machines, wl, label)
	if err != nil {
		return nil, fmt.Errorf("calib: exact %s: %w", label(machines[len(exact)]), err)
	}
	var tw twin.Estimator
	cells := make([]Cell, len(machines))
	for i, m := range machines {
		pred, err := tw.EstimateCell(ctx, nil, nil, m, wl, label(m))
		if err != nil {
			return nil, fmt.Errorf("calib: twin %s: %w", label(m), err)
		}
		cells[i] = Cell{Family: twin.Family(wl.Name()), Label: label(m), Exact: exact[i].GFlops, Twin: pred.GFlops}
	}
	return cells, nil
}

// reduce folds cells into the per-family report.
func reduce(cells []Cell) (*Report, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("calib: empty grid")
	}
	byFam := map[string][]Cell{}
	for _, c := range cells {
		byFam[c.Family] = append(byFam[c.Family], c)
	}
	rep := &Report{ExactVersion: core.ModelVersion, TwinVersion: twin.ModelVersion, Cells: cells}
	fams := make([]string, 0, len(byFam))
	for f := range byFam {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		group := byFam[f]
		exact := make([]float64, len(group))
		pred := make([]float64, len(group))
		for i, c := range group {
			exact[i], pred[i] = c.Exact, c.Twin
		}
		mape, err := stats.MAPE(exact, pred)
		if err != nil {
			return nil, fmt.Errorf("calib: family %s: %w", f, err)
		}
		r, err := stats.PearsonR(exact, pred)
		if err != nil {
			// A family whose exact series is constant over the grid has
			// no defined correlation; MAPE still gates it.
			r = 0
		}
		rep.Families = append(rep.Families, FamilyReport{Family: f, Cells: len(group), MAPE: mape, R: r})
	}
	return rep, nil
}

// Bounds returns the report's per-family MAPE, the map consumed by
// twin.NewEscalating and written to the checked-in baseline.
func (r *Report) Bounds() map[string]float64 {
	out := make(map[string]float64, len(r.Families))
	for _, f := range r.Families {
		out[f.Family] = f.MAPE
	}
	return out
}

// Baseline is the checked-in per-family MAPE the CI gate compares
// against (scripts/calib-baseline.json).
type Baseline map[string]float64

// LoadBaseline reads a baseline file.
func LoadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("calib: baseline %s: %w", path, err)
	}
	return b, nil
}

// WriteBaseline writes the report's bounds as a baseline file, keys
// sorted for stable diffs.
func (r *Report) WriteBaseline(path string) error {
	data, err := json.MarshalIndent(r.Bounds(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Check fails if any family's MAPE regressed past the baseline with
// slack headroom (fractional, e.g. 0.10 = 10%, plus half a point
// absolute so near-zero families are not gated on noise), or if a
// family is missing from the baseline — re-baseline deliberately
// instead of silently admitting new untracked error.
func (r *Report) Check(b Baseline, slack float64) error {
	var bad []string
	for _, f := range r.Families {
		bound, ok := b[f.Family]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: not in baseline (got MAPE %.4f)", f.Family, f.MAPE))
			continue
		}
		limit := bound*(1+slack) + 0.005
		if f.MAPE > limit {
			bad = append(bad, fmt.Sprintf("%s: MAPE %.4f > limit %.4f (baseline %.4f)", f.Family, f.MAPE, limit, bound))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("calib: twin error regressed:\n  %s", joinLines(bad))
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}

func logSpace(lo, hi int64, points int) []int64 {
	if points < 2 || hi <= lo {
		return []int64{lo}
	}
	out := make([]int64, 0, points)
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	for i := 0; i < points; i++ {
		out = append(out, int64(math.Exp(llo+(lhi-llo)*float64(i)/float64(points-1))))
	}
	return out
}
