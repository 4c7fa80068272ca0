package main

import (
	"context"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// dense-grid: seeded (kind, n, nb) cells of the fig7/8/15/16 grids,
// GEMM and Cholesky on every mode of both platforms, each committed to
// the store. Nothing is simulated per access, so a simulator speedup
// must leave this workload unchanged: sweep dispatch, the analytic
// traffic model, Evaluate, the gate, cell keying and store.Put do all
// the work.

// denseSliceEvery is how many cells pass between two meter slices, in
// the lookups and in the jobs: cells take microseconds, so a slice
// before each would be most of the pass.
const denseSliceEvery = 128

type denseJob struct {
	idx int
	job core.DenseJob
}

type denseGrid struct {
	jobs []denseJob
}

// denseOrders and denseBlocks are the paper's full-resolution grids
// (Appendix A.2): orders step 512 on Broadwell and 1024 on KNL, blocks
// 128..4096 step 128 on both.
func denseOrders(p *platform.Platform) []int {
	var out []int
	step, last := 512, 16128
	if p.Name == "knl" {
		step, last = 1024, 32000
	}
	for n := 256; n <= last; n += step {
		out = append(out, n)
	}
	return out
}

func denseBlocks() []int {
	var out []int
	for nb := 128; nb <= 4096; nb += 128 {
		out = append(out, nb)
	}
	return out
}

func newDenseGrid(seed uint64, tiny bool) (runner, error) {
	var grid []core.DenseJob
	for _, p := range platform.All() {
		machines, err := core.Machines(p)
		if err != nil {
			return nil, err
		}
		for _, m := range machines {
			for _, kind := range []trace.DenseKind{trace.DenseGEMM, trace.DenseCholesky} {
				for _, nb := range denseBlocks() {
					for _, n := range denseOrders(p) {
						grid = append(grid, core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb})
					}
				}
			}
		}
	}
	n := 8192
	if tiny {
		n = 48
	}
	// A seeded sample without replacement, submitted in grid order as
	// the heat-map runners submit theirs.
	r := newRand(seed, "dense-grid")
	perm := r.Perm(len(grid))[:n]
	sort.Ints(perm)
	jobs := make([]denseJob, n)
	for i, gi := range perm {
		jobs[i] = denseJob{idx: i, job: grid[gi]}
	}
	return &denseGrid{jobs: jobs}, nil
}

func (d *denseGrid) workers() int { return batchWorkers }

func (d *denseGrid) pass(ctx context.Context, e *env) (*passOut, error) {
	return d.run(ctx, e, d.jobs)
}

// warmup runs the first 512 cells.
func (d *denseGrid) warmup(ctx context.Context, e *env) error {
	_, err := d.run(ctx, e, d.jobs[:min(512, len(d.jobs))])
	return err
}

func (d *denseGrid) run(ctx context.Context, e *env, jobs []denseJob) (*passOut, error) {
	stats := make([]cellStats, len(d.jobs))
	c := &cellCache[denseJob, memsim.Result]{
		family: func(denseJob) string { return harness.DenseSweepID },
		key:    func(j denseJob) string { return harness.DenseKey(j.job) },
		cell:   func(j denseJob) string { return core.DenseCellKey(j.job) },
		tick:   func(j denseJob) { e.m.tick(j.idx, denseSliceEvery) },
	}
	traced := e.tr != nil
	res, failed, journal, err := runBatch(ctx, e, jobs, c, func(ctx context.Context, _ *sweep.Worker, j denseJob) (memsim.Result, error) {
		e.m.tick(j.idx, denseSliceEvery)
		s := &stats[j.idx]
		s.start = time.Now()
		ctx = e.tr.withCell(ctx, c.cell(j))
		var r memsim.Result
		var err error
		e.tr.do(ctx, "bench.cell", func(ctx context.Context) {
			e.tr.do(ctx, "core.estimate_dense", func(ctx context.Context) {
				r, err = core.Exact.EstimateDense(ctx, nil, j.job, core.DenseCellKey(j.job))
			})
		})
		s.lat = time.Since(s.start)
		// No simulation: the modelled line transfers stand in for the
		// simulated line accesses of the other workloads.
		for _, b := range r.Traffic.Bytes {
			s.lines += b / cache.LineSize
		}
		if traced {
			s.rep.dense = append(s.rep.dense, j.job)
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]cellStats, len(jobs))
	for i, j := range jobs {
		out[i] = stats[j.idx]
	}
	return assemble(res, failed, out, "dense", journal), nil
}
