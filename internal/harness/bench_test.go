package harness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
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
