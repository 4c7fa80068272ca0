package harness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// BenchmarkCurveCellKNL times one mid-size curve cell, Stencil at
// 128 MB on all four KNL modes through the exact estimator, on a
// worker whose pooled simulators are already built: the per-job body
// of the KNL curve figures and of the serve daemon's cold path.
func BenchmarkCurveCellKNL(b *testing.B) {
	spec, err := NewCurveSpec("knl")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	w := sweep.NewWorker(0)
	cell := func() {
		if _, err := spec.ComputeCell(ctx, nil, w, core.Exact, "Stencil", 128<<20); err != nil {
			b.Fatal(err)
		}
	}
	cell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// BenchmarkSparseCellBroadwell times one mid-size sparse cell, SpTRANS
// on a 64 MB (paper scale) RMAT matrix on Broadwell's ddr and edram
// machines through the exact estimator, on a worker whose pooled
// simulators are already built: the per-job body of the Broadwell
// sparse figures, matrix build included. Its scalar gathers walk L1,
// L2, L3 and the eDRAM victim cache one access at a time.
func BenchmarkSparseCellBroadwell(b *testing.B) {
	base, opms, plat, err := machineSet("broadwell")
	if err != nil {
		b.Fatal(err)
	}
	machines := append([]*core.Machine{base}, opms...)
	spec := sparse.Spec{Name: "rmat-64MB", Family: sparse.FamRMAT, PaperFootprint: 64 << 20, RowNNZ: 16, Seed: 1}
	ctx := context.Background()
	w := sweep.NewWorker(0)
	cell := func() {
		if _, err := sparseCell(ctx, nil, w, plat, machines, "SpTRANS", spec); err != nil {
			b.Fatal(err)
		}
	}
	cell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// BenchmarkDenseCellDigest times the store digest of one dense cell,
// GEMM on KNL in cache mode: DenseKey with its config fingerprint,
// plus the four-part SHA-256. A batch sweep derives the key three times
// per dense cell (the lookup and commit digests, and the key Put
// journals), beside a microsecond analytic model.
func BenchmarkDenseCellDigest(b *testing.B) {
	m, err := core.NewMachine(platform.KNL(), memsim.ModeCache)
	if err != nil {
		b.Fatal(err)
	}
	j := core.DenseJob{Machine: m, Kind: trace.DenseGEMM, N: 16640, NB: 1024}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CellDigest(core.Exact, DenseSweepID, "", DenseKey(j))
	}
}
