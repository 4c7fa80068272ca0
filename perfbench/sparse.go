package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// sparse-gather: SpMV, SpTRANS and SpTRSV on Broadwell ddr and edram
// over seeded specs of all eight matrix families. Scalar gathers walk
// four set-associative levels and the eDRAM victim insert/invalidate
// path; the matrix generator and the trace walk cost more host time
// than the caches do.

var sparseKernels = []string{"SpMV", "SpTRANS", "SpTRSV"}

// rowNNZChoices are the collection's row lengths; each (family,
// kernel) pair keeps one, so a seed moves footprints and structure,
// not the kind of matrix.
var rowNNZChoices = []int{4, 6, 8, 12, 16, 24, 32, 48}

// sparsePoint mirrors the record opmbench's sparse sweeps journal, so
// the committed bytes are those of an opmbench run of the same spec.
type sparsePoint struct {
	Spec      sparse.Spec
	Rows, NNZ int
	Footprint int64
	GFlops    map[memsim.Mode]float64
}

type sparseJob struct {
	idx    int
	kernel string
	spec   sparse.Spec
}

type sparseGather struct {
	plat     *platform.Platform
	machines []*core.Machine
	cfgHash  string
	jobs     []sparseJob
}

// newSparseGather draws 24 cells: every family × kernel pair in its own
// log-width stratum of 4 MB–192 MB (paper scale), which straddles the
// 6 MB L3 and the 128 MB eDRAM. Each family sees a small, a medium and
// a large stratum across its three kernels.
func newSparseGather(seed uint64, tiny bool) (runner, error) {
	plat := platform.Broadwell()
	machines, err := core.Machines(plat)
	if err != nil {
		return nil, err
	}
	cfgs := make([]any, 0, len(machines)+1)
	for _, m := range machines {
		cfgs = append(cfgs, m.Config())
	}
	// The config component opmbench's sparse sweeps hash: every
	// machine's configuration plus the scale matrices instantiate at.
	cfgs = append(cfgs, plat.Scale)
	lo, hi := int64(4)<<20, int64(192)<<20
	if tiny {
		lo, hi = 256<<10, 1<<20
	}
	r := newRand(seed, "sparse-gather")
	nfam := int(sparse.NumFamilies)
	n := nfam * len(sparseKernels)
	var jobs []sparseJob
	for f := 0; f < nfam; f++ {
		for k, kernel := range sparseKernels {
			tier := (f + k) % len(sparseKernels)
			st := tier*nfam + f
			fam := sparse.Family(f)
			jobs = append(jobs, sparseJob{kernel: kernel, spec: sparse.Spec{
				ID:             st,
				Name:           fmt.Sprintf("%s-%02d", fam, st),
				Family:         fam,
				PaperFootprint: stratum(r, lo, hi, st, n),
				RowNNZ:         rowNNZChoices[(len(sparseKernels)*f+k)%len(rowNNZChoices)],
				Seed:           r.Uint64(),
			}})
		}
	}
	// Largest first, so the two workers finish together.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].spec.PaperFootprint > jobs[j].spec.PaperFootprint })
	for i := range jobs {
		jobs[i].idx = i
	}
	return &sparseGather{plat: plat, machines: machines, cfgHash: obs.Hash(cfgs...), jobs: jobs}, nil
}

func (g *sparseGather) workers() int { return batchWorkers }

func (g *sparseGather) pass(ctx context.Context, e *env) (*passOut, error) {
	return g.run(ctx, e, g.jobs)
}

// warmup runs the three smallest cells.
func (g *sparseGather) warmup(ctx context.Context, e *env) error {
	_, err := g.run(ctx, e, g.jobs[len(g.jobs)-3:])
	return err
}

func sparseWorkload(kernel string, m *sparse.CSR) (trace.Workload, error) {
	switch kernel {
	case "SpMV":
		return &trace.SpMV{M: m}, nil
	case "SpTRANS":
		return &trace.SpTRANS{M: m}, nil
	case "SpTRSV":
		return trace.NewSpTRSV(m)
	}
	return nil, fmt.Errorf("unknown sparse kernel %q", kernel)
}

func (g *sparseGather) run(ctx context.Context, e *env, jobs []sparseJob) (*passOut, error) {
	stats := make([]cellStats, len(g.jobs))
	c := &cellCache[sparseJob, sparsePoint]{
		cfgHash: g.cfgHash,
		family:  func(j sparseJob) string { return "sparse/" + j.kernel },
		key:     func(j sparseJob) string { return j.spec.Name },
		cell:    func(j sparseJob) string { return j.kernel + "/" + j.spec.Name },
	}
	traced := e.tr != nil
	res, failed, journal, err := runBatch(ctx, e, jobs, c, func(ctx context.Context, w *sweep.Worker, j sparseJob) (sparsePoint, error) {
		e.m.tick(j.idx, 1)
		s := &stats[j.idx]
		s.start = time.Now()
		defer func() { s.lat = time.Since(s.start) }()
		ctx = e.tr.withCell(ctx, c.cell(j))
		var pt sparsePoint
		var err error
		e.tr.do(ctx, "bench.cell", func(ctx context.Context) { pt, err = g.cell(ctx, e.tr, w, j, s, traced) })
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

// cell is the body of opmbench's sparse sweep job: instantiate the
// matrix, build the kernel's trace workload, and evaluate it on every
// mode through the exact estimator.
func (g *sparseGather) cell(ctx context.Context, t *tracer, w *sweep.Worker, j sparseJob, s *cellStats, keep bool) (sparsePoint, error) {
	var m *sparse.CSR
	var err error
	t.do(ctx, "sparse.build", func(context.Context) { m, err = j.spec.Checked(g.plat.Scale) })
	if err != nil {
		return sparsePoint{}, err
	}
	var wl trace.Workload
	t.do(ctx, "trace.workload", func(context.Context) { wl, err = sparseWorkload(j.kernel, m) })
	if err != nil {
		return sparsePoint{}, err
	}
	if keep {
		s.rep.gens = append(s.rep.gens, genRec{plat: g.plat, wl: wl})
	}
	pt := sparsePoint{Spec: j.spec, Rows: m.Rows, NNZ: m.NNZ(), GFlops: map[memsim.Mode]float64{}}
	for _, mach := range g.machines {
		sim, err := pooledSim(ctx, t, w, mach, s)
		if err != nil {
			return sparsePoint{}, err
		}
		var r memsim.Result
		t.do(ctx, "core.estimate", func(ctx context.Context) {
			r, err = core.Exact.EstimateCell(ctx, nil, w, mach, wl, j.spec.Name+"|"+mach.Label())
		})
		if err != nil {
			return sparsePoint{}, fmt.Errorf("%s on %s: %w", j.spec.Name, mach.Label(), err)
		}
		pt.GFlops[mach.Mode] = r.GFlops
		pt.Footprint = r.FootprintBytes
		if err := s.collectSim(mach, sim, wl); err != nil {
			return sparsePoint{}, err
		}
	}
	return pt, nil
}
