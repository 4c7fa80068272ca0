package harness

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// The exported cell catalog: the serve daemon answers "kernel K at
// footprint F on platform P in mode X" queries by resolving them onto
// the exact cells the batch figures journal — same digest layout, same
// compute path, same stored bytes. Everything here is a thin exported
// seam over the internals the figure runners already use, so the two
// callers cannot drift apart: runCurves itself goes through CurveSpec,
// and the batch store cache derives its digests through CellDigest.

// CellDigest returns the store digest addressing one cached cell of
// sweep family sweepID as est computes it — the four-part layout of
// DESIGN.md §8 with est.Version() as the model version, which for
// core.Exact is core.ModelVersion. This is the digest the batch
// sweeps' store cache derives, so a serve-side lookup hits exactly the
// entries an opmbench run journaled.
func CellDigest(est core.Estimator, sweepID, cfgHash, key string) string {
	return store.Digest(est.Version(), cfgHash, sweepID, key)
}

// CellTraceID returns the trace identity of a cell digest — the same
// derivation storeCache.TraceInfo uses, so serve request chains join
// the batch job chains for the same cell.
func CellTraceID(digest string) string { return obs.TraceID("store", digest) }

// CellFamilyID returns the Exp provenance label batch sweeps record on
// Put: the sweep family itself, which perfbench journals its cells
// under. est is not consulted; the one estimator adds no namespace.
func CellFamilyID(_ core.Estimator, sweepID string) string { return sweepID }

// DenseSweepID is the store family of the dense analytic grid cells.
const DenseSweepID = "dense"

// DenseKey returns the store job key of one dense cell — the layout
// denseCache uses (the per-job machine config hash folds into the key;
// the family's cfgHash is empty): "<config hash>|<kind>|<N>|<NB>". It
// is built in a stack buffer, so the returned string is its one
// allocation.
func DenseKey(j core.DenseJob) string {
	var stack [64]byte
	b := append(stack[:0], j.Machine.ConfigHash()...)
	b = append(b, '|')
	b = append(b, j.Kind.String()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.N), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.NB), 10)
	return string(b)
}

// CurveSweepID is the store family of one kernel's curve cells.
func CurveSweepID(kernel string) string { return "curve/" + kernel }

// CurveCellKey is the store job key of one curve cell: the paper-scale
// footprint in bytes.
func CurveCellKey(fp int64) string { return fmt.Sprint(fp) }

// CurveSpec is one platform's curve-cell family: the machine set the
// paper compares (baseline DDR first, then the OPM modes in Table-1
// order) and the platform whose scale parameterizes the workloads.
// One spec pins the digest config hash, the footprint grid, and the
// per-footprint compute, so every consumer — figure runner or serving
// daemon — evaluates byte-identical cells.
type CurveSpec struct {
	Platform *platform.Platform
	Machines []*core.Machine
}

// NewCurveSpec builds the curve spec for a platform ("broadwell" or
// "knl").
func NewCurveSpec(platName string) (*CurveSpec, error) {
	base, opms, plat, err := machineSet(platName)
	if err != nil {
		return nil, err
	}
	return &CurveSpec{Platform: plat, Machines: append([]*core.Machine{base}, opms...)}, nil
}

// ConfigHash fingerprints the spec for the digest's config component:
// the machine-set configurations plus the scale the workload builder
// consumes.
func (s *CurveSpec) ConfigHash() string {
	return machinesHash(s.Machines, s.Platform.Scale)
}

// Footprints returns the paper-scale footprint grid the curve figures
// sweep (log-spaced; see curveFootprints for the per-platform spans).
func (s *CurveSpec) Footprints(opt Options) []int64 {
	return curveFootprints(s.Platform, opt)
}

// Machine returns the spec's machine for a mode, or false when the
// platform does not run that mode.
func (s *CurveSpec) Machine(mode memsim.Mode) (*core.Machine, bool) {
	for _, m := range s.Machines {
		if m.Mode == mode {
			return m, true
		}
	}
	return nil, false
}

// Workload builds the kernel's workload at one paper-scale footprint
// (scaled down to simulation size, floored at 4KiB).
func (s *CurveSpec) Workload(kernel string, fp int64) (trace.Workload, error) {
	simFP := s.Platform.ScaledBytes(fp)
	if simFP < 4096 {
		simFP = 4096
	}
	return curveWorkload(kernel, simFP, s.Platform.Scale)
}

// ComputeCell evaluates one curve cell — every mode of the machine set
// at one footprint — through one est.EstimateMachines call, which the
// exact estimator serves with one L1/L2 pass. This is the per-job body
// the curve figures run under sweep.MapCached, factored out so the
// serve daemon's cold path produces byte-identical cells.
func (s *CurveSpec) ComputeCell(ctx context.Context, eng *sweep.Engine, w *sweep.Worker, est core.Estimator, kernel string, fp int64) (CurvePoint, error) {
	wl, err := s.Workload(kernel, fp)
	if err != nil {
		return CurvePoint{}, err
	}
	rs, err := est.EstimateMachines(ctx, eng, w, s.Machines, wl, func(m *core.Machine) string {
		return fmt.Sprintf("%s|fp=%d|%s", kernel, fp, m.Label())
	})
	if err != nil {
		return CurvePoint{}, fmt.Errorf("%s at %d MB on %s: %w", kernel, fp>>20, s.Machines[len(rs)].Label(), err)
	}
	pt := CurvePoint{
		GFlops: map[memsim.Mode]float64{},
		GBs:    map[memsim.Mode]float64{},
	}
	for i, mach := range s.Machines {
		r := rs[i]
		pt.GFlops[mach.Mode] = r.GFlops
		// App-level bandwidth by the paper's byte accounting:
		// bytes = flops / AI, AI = flops/bytes of Table 2.
		pt.GBs[mach.Mode] = appGBs(kernel, wl, r)
		pt.Footprint = r.FootprintBytes
	}
	return pt, nil
}
