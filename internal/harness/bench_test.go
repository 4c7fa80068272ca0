package harness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/platform"
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
