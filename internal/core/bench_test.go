package core

import (
	"context"
	"testing"

	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// benchMachines is the Broadwell baseline/eDRAM pair every sub-benchmark
// sweeps.
func benchMachines(b *testing.B) []*Machine {
	b.Helper()
	var machines []*Machine
	for _, mode := range []memsim.Mode{memsim.ModeDDR, memsim.ModeEDRAM} {
		m, err := NewMachine(platform.Broadwell(), mode)
		if err != nil {
			b.Fatal(err)
		}
		machines = append(machines, m)
	}
	return machines
}

// BenchmarkExactCells measures the exact estimator over two sweep
// slices on Broadwell: the dense (GEMM) grid, which evaluates the
// analytic traffic model, and the trace-driven curve cells (Stream,
// Stencil, FFT at an OPM-relevant footprint), which simulate every
// access. Each cell builds its simulators unpooled.
//
//	go test ./internal/core -run '^$' -bench ExactCells -benchtime 1x
func BenchmarkExactCells(b *testing.B) {
	ctx := context.Background()
	machines := benchMachines(b)

	var jobs []DenseJob
	for _, m := range machines {
		for _, n := range []int{2048, 4096} {
			for _, nb := range []int{256, 1024} {
				jobs = append(jobs, DenseJob{Machine: m, Kind: trace.DenseGEMM, N: n, NB: nb})
			}
		}
	}
	fp := platform.Broadwell().ScaledBytes(96 << 20)
	workloads := []trace.Workload{
		trace.NewStream(fp),
		trace.NewStencil(fp, platform.Broadwell().Scale),
		trace.NewFFT(fp),
	}

	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := Exact.EstimateDense(ctx, nil, j, DenseCellKey(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("curves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range machines {
				for _, wl := range workloads {
					if _, err := Exact.EstimateCell(ctx, nil, nil, m, wl, wl.Name()+"|"+m.Label()); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
