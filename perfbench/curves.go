package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sweep"
)

// curves-knl: Stream, Stencil and FFT on KNL ddr/cache/flat/hybrid.
// Line-granular streaming with stores drives dirty evictions and
// writebacks through the direct-mapped MCDRAM cache and the flat/hybrid
// split: cache-level work dominates, and resetting the 256 MB simulated
// MCDRAM cache matters at small footprints.

// curveBand spreads n footprint strata of one kernel log-evenly over
// [lo, hi) (paper scale).
type curveBand struct {
	kernel string
	lo, hi int64
	n      int
}

const (
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// curveBands place strata below the 32 MB L2 and between the L2 and the
// 16 GB MCDRAM. Stencil and FFT cost ~8× more host time per byte than
// Stream, so their bands stop at 512 MB. No cell lies beyond MCDRAM:
// the cheapest, Stream at 16 GB, takes ~4 s of host time, longer than
// a whole pass of the cells below.
var curveBands = []curveBand{
	{"Stream", 8 * mb, 2 * gb, 4},
	{"Stencil", 8 * mb, 512 * mb, 3},
	{"FFT", 8 * mb, 512 * mb, 3},
}

var tinyCurveBands = []curveBand{
	{"Stream", 8 * mb, 16 * mb, 1},
	{"Stencil", 8 * mb, 16 * mb, 1},
	{"FFT", 8 * mb, 16 * mb, 1},
}

type curveJob struct {
	idx    int
	kernel string
	fp     int64
	cost   int64 // relative host cost, for largest-first dispatch
}

type curvesKNL struct {
	spec *harness.CurveSpec
	jobs []curveJob
}

func newCurvesKNL(seed uint64, tiny bool) (runner, error) {
	spec, err := harness.NewCurveSpec("knl")
	if err != nil {
		return nil, err
	}
	bands := curveBands
	if tiny {
		bands = tinyCurveBands
	}
	r := newRand(seed, "curves-knl")
	var jobs []curveJob
	for _, b := range bands {
		for i := 0; i < b.n; i++ {
			fps, err := curvePair(r, spec, b.kernel, b.lo, b.hi, i, b.n)
			if err != nil {
				return nil, err
			}
			// Both cells of a pair cost their stratum centre's host time,
			// so the dispatch order, and with it how the cells share out
			// between the two workers, is the same for every seed.
			cost := int64(float64(b.lo) * math.Pow(float64(b.hi)/float64(b.lo), (float64(i)+0.5)/float64(b.n)))
			if b.kernel != "Stream" {
				cost *= 8
			}
			for _, fp := range fps {
				jobs = append(jobs, curveJob{kernel: b.kernel, fp: fp, cost: cost})
			}
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].cost > jobs[j].cost })
	for i := range jobs {
		jobs[i].idx = i
	}
	return &curvesKNL{spec: spec, jobs: jobs}, nil
}

// curvePair draws two footprints near the centre of the i-th of n
// log-even strata of [lo, hi): one below it and one above. The generators
// round a footprint to their own grid (FFT to a power-of-two transform,
// Stencil to power-of-two cross-sections), so each side's offset stays
// where the simulated problem is within 2% of the centre's: the seed
// moves the footprints and cell keys, while a pass's host work, nearly
// proportional to the pair's total, stays put. Where the centre sits on
// a grid step (the FFT strata centres are powers of two), the side above
// has no room and its footprint is the centre itself.
func curvePair(r *rand.Rand, spec *harness.CurveSpec, kernel string, lo, hi int64, i, n int) ([2]int64, error) {
	step := math.Log(float64(hi)/float64(lo)) / float64(n)
	centre := math.Log(float64(lo)) + step*(float64(i)+0.5)
	size := func(l float64) (float64, error) {
		wl, err := spec.Workload(kernel, int64(math.Exp(l)))
		if err != nil {
			return 0, err
		}
		return float64(wl.FootprintBytes()), nil
	}
	c, err := size(centre)
	if err != nil {
		return [2]int64{}, err
	}
	// widest bisects for the largest offset on one side, up to 15% of
	// the stratum.
	widest := func(sign float64) float64 {
		within := func(d float64) bool {
			s, err := size(centre + sign*d)
			return err == nil && math.Abs(s-c) <= 0.02*c
		}
		ok, bad := 0.0, 0.15*step
		if within(bad) {
			return bad
		}
		for k := 0; k < 40; k++ {
			if mid := (ok + bad) / 2; within(mid) {
				ok = mid
			} else {
				bad = mid
			}
		}
		return ok
	}
	below, above := widest(-1), widest(1)
	return [2]int64{int64(math.Exp(centre - r.Float64()*below)), int64(math.Exp(centre + r.Float64()*above))}, nil
}

func (k *curvesKNL) workers() int { return batchWorkers }

func (k *curvesKNL) pass(ctx context.Context, e *env) (*passOut, error) {
	return k.run(ctx, e, k.jobs)
}

// warmup runs the three cheapest cells.
func (k *curvesKNL) warmup(ctx context.Context, e *env) error {
	_, err := k.run(ctx, e, k.jobs[len(k.jobs)-3:])
	return err
}

func (k *curvesKNL) run(ctx context.Context, e *env, jobs []curveJob) (*passOut, error) {
	stats := make([]cellStats, len(k.jobs))
	c := &cellCache[curveJob, harness.CurvePoint]{
		cfgHash: k.spec.ConfigHash(),
		family:  func(j curveJob) string { return harness.CurveSweepID(j.kernel) },
		key:     func(j curveJob) string { return harness.CurveCellKey(j.fp) },
		cell:    func(j curveJob) string { return fmt.Sprintf("%s/%d", j.kernel, j.fp) },
	}
	traced := e.tr != nil
	res, failed, journal, err := runBatch(ctx, e, jobs, c, func(ctx context.Context, w *sweep.Worker, j curveJob) (harness.CurvePoint, error) {
		e.m.tick(j.idx, 1)
		s := &stats[j.idx]
		s.start = time.Now()
		defer func() { s.lat = time.Since(s.start) }()
		ctx = e.tr.withCell(ctx, c.cell(j))
		var pt harness.CurvePoint
		var err error
		e.tr.do(ctx, "bench.cell", func(ctx context.Context) { pt, err = k.cell(ctx, e.tr, w, j, s, traced) })
		return pt, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]cellStats, len(jobs))
	for i, j := range jobs {
		out[i] = stats[j.idx]
	}
	return assemble(res, failed, out, "sim", journal), nil
}

// cell is the body of opmbench's curve sweep job — CurveSpec.ComputeCell
// over every KNL mode — plus the collection of each mode's counts.
func (k *curvesKNL) cell(ctx context.Context, t *tracer, w *sweep.Worker, j curveJob, s *cellStats, keep bool) (harness.CurvePoint, error) {
	for _, m := range k.spec.Machines {
		if _, err := pooledSim(ctx, t, w, m, s); err != nil {
			return harness.CurvePoint{}, err
		}
	}
	var pt harness.CurvePoint
	var err error
	t.do(ctx, "core.estimate", func(ctx context.Context) {
		pt, err = k.spec.ComputeCell(ctx, nil, w, core.Exact, j.kernel, j.fp)
	})
	if err != nil {
		return pt, err
	}
	wl, err := k.spec.Workload(j.kernel, j.fp)
	if err != nil {
		return pt, err
	}
	if keep {
		s.rep.gens = append(s.rep.gens, genRec{plat: k.spec.Platform, wl: wl})
	}
	for _, m := range k.spec.Machines {
		sim, err := m.PooledSim(w)
		if err != nil {
			return pt, err
		}
		if err := s.collectSim(m, sim, wl); err != nil {
			return pt, err
		}
	}
	return pt, nil
}
