// Package harness maps every table and figure of the paper's
// evaluation section to a runnable experiment. Each experiment sweeps
// the same parameter space as the paper (scaled per DESIGN.md),
// renders the figure as text, emits CSV series, and reports headline
// findings (the numbers EXPERIMENTS.md records against the paper).
package harness

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Options controls experiment scale, parallelism and output.
type Options struct {
	// Full selects the paper's complete sweeps (968 matrices, fine
	// heat-map grids). The default quick mode subsamples them to keep
	// a full reproduction run in minutes.
	Full bool
	// OutDir, when set, receives one CSV per emitted series.
	OutDir string
	// Stride overrides the sparse-suite subsampling (default 16 in
	// quick mode, 1 in full mode). Tests use large strides.
	Stride int
	// CurvePoints overrides the footprint-sweep resolution (default
	// 16 quick / 32 full).
	CurvePoints int
	// MaxPaperFootprint, when positive, drops sparse-suite matrices
	// larger than this many bytes at paper scale (tests use it).
	MaxPaperFootprint int64
	// Workers bounds the sweep engine's worker pool (0 = GOMAXPROCS,
	// 1 = the sequential baseline the equivalence tests compare
	// against).
	Workers int
	// Progress, when non-nil, receives live sweep advancement
	// (opmbench -progress wires it to stderr).
	Progress func(sweep.Progress)
	// Obs, when non-nil, receives run telemetry: sweep engine metrics,
	// per-level simulator counters, and hierarchical phase spans.
	// Telemetry never alters report bytes — a run with Obs set renders
	// byte-identical Text/CSV/Findings to one without.
	Obs *obs.Registry
	// Log, when non-nil, receives structured run logs (experiment
	// start/finish, sweep sizes, dropped cells). Nil disables logging.
	Log *slog.Logger
	// Store, when non-nil, memoizes per-job sweep results: cached
	// jobs bypass the worker pool (warm runs execute zero simulator
	// jobs) and completed jobs are journaled as they finish, so an
	// interrupted run resumes from its last checkpoint. A warm or
	// resumed run renders byte-identical Text/CSV/Findings to a cold
	// one (see DESIGN.md §8).
	Store *store.Store
	// Force disables store lookups (every job recomputes) while still
	// committing results, overwriting existing entries — the recovery
	// path when cached results are suspect.
	Force bool
	// Trace, when non-nil, records every sweep job's causal event chain
	// (enqueue → dispatch → estimator/gate → store → done) into the
	// tracer's ring and optional JSONL sink
	// (opmbench -trace, analyzed by cmd/opmprof). Store-backed runs
	// derive trace IDs from the store's content digests, so traces of
	// different runs join on the same cells. Like Obs, tracing never
	// alters report bytes (DESIGN.md §12).
	Trace *obs.Tracer
}

// engine builds the sweep engine the option set describes.
func (o Options) engine() *sweep.Engine {
	return &sweep.Engine{Workers: o.Workers, Progress: o.Progress, Obs: o.Obs, Trace: o.Trace}
}

// logger returns the options' logger, or a drop-everything logger so
// call sites never nil-check.
func (o Options) logger() *slog.Logger {
	if o.Log == nil {
		return obs.NopLogger()
	}
	return o.Log
}

// Report is the outcome of one experiment. Text, CSV and Findings are
// the deterministic report bytes the equivalence tests compare;
// Manifest is run provenance riding beside them, never rendered into
// them.
type Report struct {
	ID       string
	Title    string
	Text     string              // rendered figure/table
	CSV      map[string][]string // file name -> lines (header first)
	Findings []string            // headline paper-vs-measured notes
	Manifest *obs.Manifest       // run provenance (attached by instrument)
	// Dropped counts survivable per-job sweep failures behind the
	// report's WARNING findings — what opmbench -strict turns into a
	// non-zero exit while still writing the partial report.
	Dropped int
}

// Experiment is one reproducible table or figure. Run's context
// cancels or times out the experiment's sweeps mid-flight.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, opt Options) (*Report, error)
}

// Registry returns all experiments in paper order, each wrapped by
// the observability layer (see instrument).
func Registry() []Experiment {
	return instrumentAll([]Experiment{
		{ID: "table2", Title: "Table 2 / Fig 4: kernel characteristics and AI spectrum", Run: runTable2},
		{ID: "fig5", Title: "Fig 5: roofline models for eDRAM and MCDRAM", Run: runFig5},
		{ID: "fig6", Title: "Fig 6: the Stepping model", Run: runFig6},
		{ID: "fig1", Title: "Fig 1: GEMM achievable-performance density w/ and w/o eDRAM", Run: runFig1},
		{ID: "fig7", Title: "Fig 7: GEMM on Broadwell heat maps", Run: denseHeatmapRunner("broadwell", "GEMM")},
		{ID: "fig8", Title: "Fig 8: Cholesky on Broadwell heat maps", Run: denseHeatmapRunner("broadwell", "Cholesky")},
		{ID: "fig9", Title: "Fig 9: SpMV on Broadwell", Run: sparseRunner("broadwell", "SpMV")},
		{ID: "fig10", Title: "Fig 10: SpTRANS on Broadwell", Run: sparseRunner("broadwell", "SpTRANS")},
		{ID: "fig11", Title: "Fig 11: SpTRSV on Broadwell", Run: sparseRunner("broadwell", "SpTRSV")},
		{ID: "fig12", Title: "Fig 12: Stream on Broadwell", Run: curveRunner("broadwell", "Stream")},
		{ID: "fig13", Title: "Fig 13: Stencil on Broadwell", Run: curveRunner("broadwell", "Stencil")},
		{ID: "fig14", Title: "Fig 14: FFT on Broadwell", Run: curveRunner("broadwell", "FFT")},
		{ID: "fig15", Title: "Fig 15: GEMM on KNL heat maps (4 modes)", Run: denseHeatmapRunner("knl", "GEMM")},
		{ID: "fig16", Title: "Fig 16: Cholesky on KNL heat maps (4 modes)", Run: denseHeatmapRunner("knl", "Cholesky")},
		{ID: "fig17", Title: "Fig 17 / Fig 20: SpMV on KNL", Run: sparseRunner("knl", "SpMV")},
		{ID: "fig18", Title: "Fig 18 / Fig 21: SpTRANS on KNL", Run: sparseRunner("knl", "SpTRANS")},
		{ID: "fig19", Title: "Fig 19 / Fig 22: SpTRSV on KNL", Run: sparseRunner("knl", "SpTRSV")},
		{ID: "fig23", Title: "Fig 23: Stream on KNL (4 modes)", Run: curveRunner("knl", "Stream")},
		{ID: "fig24", Title: "Fig 24: Stencil on KNL (4 modes)", Run: curveRunner("knl", "Stencil")},
		{ID: "fig25", Title: "Fig 25: FFT on KNL (4 modes)", Run: curveRunner("knl", "FFT")},
		{ID: "table4", Title: "Table 4: eDRAM summary statistics", Run: runTable4},
		{ID: "table5", Title: "Table 5: MCDRAM summary statistics", Run: runTable5},
		{ID: "fig26", Title: "Fig 26: Broadwell power", Run: powerRunner("broadwell")},
		{ID: "fig27", Title: "Fig 27: KNL power (+ Eq. 1 break-even)", Run: powerRunner("knl")},
		{ID: "fig28", Title: "Fig 28: eDRAM tuning via Stepping model", Run: runFig28},
		{ID: "fig29", Title: "Fig 29: MCDRAM tuning via Stepping model", Run: runFig29},
		{ID: "fig30", Title: "Fig 30: tuning OPM hardware (capacity/bandwidth what-ifs)", Run: runFig30},
	})
}

// instrumentAll wraps every experiment's runner with instrument.
func instrumentAll(exps []Experiment) []Experiment {
	for i := range exps {
		exps[i].Run = instrument(exps[i].ID, exps[i].Run)
	}
	return exps
}

// instrument wraps an experiment runner with the observability layer:
// an "exp/<id>" span, structured start/finish logs, and the run
// manifest attached to the finished report. It touches nothing the
// deterministic report bytes (Text/CSV/Findings) are built from, so
// enabling telemetry can never change a rendered figure.
//
//opmlint:allow determinism — wall time here is reported (logs, span, manifest timestamps), never fed back into simulated results; the equivalence suites compare report bytes that exclude it
func instrument(id string, run func(context.Context, Options) (*Report, error)) func(context.Context, Options) (*Report, error) {
	return func(ctx context.Context, opt Options) (*Report, error) {
		log := opt.logger()
		log.Debug("experiment starting", "id", id, "workers", opt.Workers, "full", opt.Full)
		start := time.Now()
		sp := opt.Obs.StartSpan("exp/" + id) //opmlint:allow counternames — id comes from the closed experiment registry (Registry/extensionExperiments); the exp/<id> namespace is enumerable via -list
		rep, err := run(ctx, opt)
		sp.End()
		elapsed := time.Since(start)
		if err != nil {
			log.Error("experiment failed", "id", id, "elapsed", elapsed, "err", err)
			return nil, err
		}
		if rep.ID == "" {
			rep.ID = id
		}
		rep.Manifest = manifestFor(opt, start)
		log.Info("experiment finished", "id", id, "elapsed", elapsed,
			"findings", len(rep.Findings), "csvs", len(rep.CSV))
		return rep, nil
	}
}

// manifestFor builds the provenance record attached to one report.
func manifestFor(opt Options, start time.Time) *obs.Manifest {
	m := obs.NewManifest("opmbench-harness")
	m.Start = start
	m.Workers = opt.Workers
	m.Machines = PlatformMatrix()
	m.ConfigHash = obs.Hash(opt.Full, opt.Stride, opt.CurvePoints, opt.MaxPaperFootprint, opt.Workers)
	m.Finish()
	return m
}

// PlatformMatrix lists every platform/mode pair the harness can run —
// the run manifest's record of the machine matrix under test.
func PlatformMatrix() []string {
	var out []string
	for _, p := range []*platform.Platform{platform.Broadwell(), platform.KNL(), platform.Skylake()} {
		for _, mode := range p.Modes {
			out = append(out, p.Name+"/"+mode.String())
		}
	}
	return out
}

// RegistryWithExtensions appends the beyond-the-paper experiments
// (Skylake memory-side eDRAM, multi-tenant sharing, model ablations).
func RegistryWithExtensions() []Experiment {
	return append(Registry(), extensionExperiments()...)
}

// Get returns the experiment with the given ID (paper experiments and
// extensions alike). An unknown ID's error carries the full registry
// listing, so a typo at the command line answers itself.
func Get(id string) (Experiment, error) {
	for _, e := range RegistryWithExtensions() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q; known experiments:\n%s", id, List())
}

// List renders the experiment-ID registry, one "id  description" line
// per experiment in paper order (extensions last) — what opmbench
// -list prints and what an unknown -exp error embeds.
func List() string {
	var b strings.Builder
	for _, e := range RegistryWithExtensions() {
		fmt.Fprintf(&b, "  %-14s %s\n", e.ID, e.Title)
	}
	return b.String()
}

// IDs lists the paper experiment IDs in order (extensions excluded;
// see ExtensionIDs).
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// ExtensionIDs lists the beyond-the-paper experiment IDs.
func ExtensionIDs() []string {
	var ids []string
	for _, e := range extensionExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// WriteCSVs persists a report's CSV series under opt.OutDir.
func (r *Report) WriteCSVs(dir string) error {
	if dir == "" || len(r.CSV) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	names := make([]string, 0, len(r.CSV))
	for name := range r.CSV {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(r.CSV[name], "\n")+"\n"), 0o644); err != nil {
			return fmt.Errorf("harness: writing %s: %w", path, err)
		}
	}
	return nil
}

// machineSet returns the machines the paper compares on a platform:
// (baseline, OPM variants).
func machineSet(platName string) (base *core.Machine, opm []*core.Machine, plat *platform.Platform, err error) {
	switch platName {
	case "broadwell":
		plat = platform.Broadwell()
	case "knl":
		plat = platform.KNL()
	default:
		return nil, nil, nil, fmt.Errorf("harness: unknown platform %q", platName)
	}
	for _, mode := range plat.Modes {
		m, err := core.NewMachine(plat, mode)
		if err != nil {
			return nil, nil, nil, err
		}
		if mode == memsim.ModeDDR {
			base = m
		} else {
			opm = append(opm, m)
		}
	}
	return base, opm, plat, nil
}

// sweepWarning surfaces survivable per-job sweep failures (dropped
// cells) as report findings — one warning per failed job, in
// submission order, so a truncated sweep is never silent and no
// dropped matrix hides behind a "N jobs failed" summary.
func sweepWarning(rep *Report, errs sweep.Errors) {
	rep.Dropped += len(errs)
	for _, e := range errs {
		rep.Findings = append(rep.Findings, "WARNING: dropped "+e.Error())
	}
}

func csvLine(fields ...string) string { return strings.Join(fields, ",") }

func f(v float64) string { return fmt.Sprintf("%.6g", v) }

func i64(v int64) string { return fmt.Sprintf("%d", v) }
