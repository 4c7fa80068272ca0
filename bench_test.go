package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
)

// benchExperiment runs one harness experiment per benchmark iteration.
// Every table and figure of the paper's evaluation has a bench target
// here (DESIGN.md §4 maps them); `go test -bench=.` regenerates the
// whole evaluation at quick scale, and `opmbench -exp all -full` at
// paper scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	benchExperimentOpts(b, id, harness.Options{})
}

func benchExperimentOpts(b *testing.B, id string, opt harness.Options) {
	b.Helper()
	e, err := harness.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			b.Fatalf("%s produced no findings", id)
		}
	}
}

// BenchmarkSweepEngine pits the sweep engine's 1-worker sequential
// baseline against the full GOMAXPROCS pool on a fig9 subsample (the
// simulator-bound sparse sweep the engine exists for). On a
// single-core host both run the same code path; on an N-core host the
// parallel variant should approach N-fold speedup because the matrix
// jobs are independent and the per-worker simulator pool removes all
// shared mutable state.
func BenchmarkSweepEngine(b *testing.B) {
	opt := harness.Options{Stride: 48}
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		o := opt
		o.Workers = w
		b.Run(fmt.Sprintf("fig9/workers=%d", w), func(b *testing.B) {
			benchExperimentOpts(b, "fig9", o)
		})
	}
}

// BenchmarkObsOverhead measures the cost of a live metrics registry on
// the sweep hot path: the same fig9 subsample with telemetry disabled
// (nil registry — every instrument call is a nil-receiver no-op) and
// enabled (counters, latency/queue-wait histograms, per-level cache
// counters all recording). The enabled variant should stay within a
// couple percent of disabled; the jobs are simulator-bound, so a
// handful of atomic ops per job is noise.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchExperimentOpts(b, "fig9", harness.Options{Stride: 48})
	})
	b.Run("enabled", func(b *testing.B) {
		o := harness.Options{Stride: 48, Obs: obs.NewRegistry()}
		benchExperimentOpts(b, "fig9", o)
	})
}

// BenchmarkTraceOverhead measures the causal event tracer on the same
// sweep hot path as BenchmarkObsOverhead: "disabled" (nil tracer —
// every Emit and context lookup is a branch-and-return) and "jsonl"
// (the append-only file sink opmbench -trace writes, one marshalled
// line per event). The jsonl variant should stay within a couple
// percent of disabled: the jobs are simulator-bound, so a per-event
// lock, marshal and buffered write is noise.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		benchExperimentOpts(b, "fig9", harness.Options{Stride: 48})
	})
	b.Run("jsonl", func(b *testing.B) {
		tr, err := obs.CreateTracer(b.TempDir() + "/trace.jsonl")
		if err != nil {
			b.Fatal(err)
		}
		defer tr.Close()
		benchExperimentOpts(b, "fig9", harness.Options{Stride: 48, Trace: tr})
	})
}

// BenchmarkStoreWarmVsCold quantifies the persistent result store:
// "cold" opens a fresh store per iteration, so every job simulates and
// commits; "warm" runs the same sweep against a prepopulated store, so
// every job is a journal lookup and the sweep pool never starts. The
// gap is the simulation time the store saves on reruns; the cold/none
// gap is the journaling overhead, which should be noise next to the
// simulator-bound jobs.
func BenchmarkStoreWarmVsCold(b *testing.B) {
	opt := harness.Options{Stride: 48}
	e, err := harness.Get("fig9")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, st *store.Store) {
		b.Helper()
		o := opt
		o.Store = st
		rep, err := e.Run(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			b.Fatal("fig9 produced no findings")
		}
	}
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, st)
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		st, err := store.Open(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(b, st) // populate
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(dir, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, st)
			b.StopTimer()
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

func BenchmarkTable2Characteristics(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig5Roofline(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6SteppingModel(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig1GEMMDensity(b *testing.B)       { benchExperiment(b, "fig1") }

func BenchmarkFig7GEMMBroadwell(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig8CholeskyBroadwell(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig15GEMMKNL(b *testing.B)          { benchExperiment(b, "fig15") }
func BenchmarkFig16CholeskyKNL(b *testing.B)      { benchExperiment(b, "fig16") }

func BenchmarkFig9SpMVBroadwell(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10SpTRANSBroadwell(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11SpTRSVBroadwell(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig17SpMVKNL(b *testing.B)          { benchExperiment(b, "fig17") }
func BenchmarkFig18SpTRANSKNL(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19SpTRSVKNL(b *testing.B)        { benchExperiment(b, "fig19") }

func BenchmarkFig12StreamBroadwell(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13StencilBroadwell(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14FFTBroadwell(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig23StreamKNL(b *testing.B)        { benchExperiment(b, "fig23") }
func BenchmarkFig24StencilKNL(b *testing.B)       { benchExperiment(b, "fig24") }
func BenchmarkFig25FFTKNL(b *testing.B)           { benchExperiment(b, "fig25") }

func BenchmarkTable4EDRAMSummary(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5MCDRAMSummary(b *testing.B) { benchExperiment(b, "table5") }

func BenchmarkFig26BroadwellPower(b *testing.B) { benchExperiment(b, "fig26") }
func BenchmarkFig27KNLPower(b *testing.B)       { benchExperiment(b, "fig27") }

func BenchmarkFig28EDRAMTuning(b *testing.B)    { benchExperiment(b, "fig28") }
func BenchmarkFig29MCDRAMTuning(b *testing.B)   { benchExperiment(b, "fig29") }
func BenchmarkFig30HardwareTuning(b *testing.B) { benchExperiment(b, "fig30") }

// Extension and ablation experiments (beyond the paper's figures).
func BenchmarkExtSkylakeMemSide(b *testing.B) { benchExperiment(b, "ext-skylake") }
func BenchmarkExtMultiTenant(b *testing.B)    { benchExperiment(b, "ext-multiuser") }
func BenchmarkAblations(b *testing.B)         { benchExperiment(b, "abl-ablations") }
