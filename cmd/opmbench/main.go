// Command opmbench reproduces the paper's tables and figures. Each
// experiment renders its figure as text, prints headline findings, and
// (with -out) writes CSV series suitable for replotting. Sweeps run on
// the concurrent sweep engine; -workers bounds its pool and -timeout
// aborts a run that exceeds its wall-clock budget at the next cell
// boundary (a cell in flight runs to completion). Every job runs once:
// a cell that fails, or whose result fails the validation gate, is
// dropped and named in a WARNING finding (a figure that cannot lose a
// cell, such as the power figure's geometric mean, fails instead), and
// -strict turns any dropped cell into exit status 1.
//
// The observability flags never change report bytes: stdout (and -out
// CSVs) stay byte-identical whether telemetry is on or off. Metrics,
// logs and profiles go to their own files or stderr.
//
// Usage:
//
//	opmbench -list
//	opmbench -exp fig7                  # one experiment
//	opmbench -exp all -out results      # everything, CSVs under results/
//	opmbench -exp fig9 -full            # the complete 968-matrix sweep
//	opmbench -exp fig9 -workers 1       # sequential baseline
//	opmbench -exp all -timeout 10m      # bound the whole run
//	opmbench -exp fig9 -progress        # live done/total/ETA on stderr
//	opmbench -exp all -store cache      # checkpoint results; rerun is warm
//	opmbench -exp all -store cache -resume   # continue an interrupted run
//	opmbench -exp fig9 -store cache -force   # recompute, overwrite cache
//	opmbench -exp all -strict           # dropped jobs fail the run
//	opmbench -exp fig9 -metrics out.json       # manifest + registry dump
//	opmbench -exp fig9 -trace run.jsonl        # per-job event chains (see opmprof)
//	opmbench -exp fig9 -log-level debug        # structured logs on stderr
//	opmbench -exp all -pprof localhost:6060    # live pprof/expvar/metrics
//	opmbench -exp fig7 -cpuprofile cpu.out     # CPU profile of the run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

func main() { os.Exit(run()) }

// run is main with working defers, so profiles and metrics dumps are
// flushed on every exit path. A -store that fails to close fails the
// run, so a script that chains -store and -resume sees the failure.
func run() (code int) {
	var (
		exp      = flag.String("exp", "", "experiment ID (see -list), or \"all\"")
		full     = flag.Bool("full", false, "run the paper's complete sweeps (968 matrices, fine grids)")
		out      = flag.String("out", "", "directory for CSV output")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		quiet    = flag.Bool("q", false, "suppress rendered figures (findings only)")
		timeRun  = flag.Bool("time", true, "print per-experiment wall time")
		workers  = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit), across every experiment; a cell in flight runs to completion and the run stops at the next cell boundary")
		progress = flag.Bool("progress", false, "report sweep progress (done/total/ETA) on stderr")
		strict   = flag.Bool("strict", false, "exit non-zero when a sweep dropped jobs (partial reports are still written)")

		storeDir = flag.String("store", "", "persistent result store directory: cached jobs are reused, completed jobs are checkpointed as they finish")
		resume   = flag.Bool("resume", false, "continue an interrupted run from an existing -store (errors if the store does not exist yet)")
		force    = flag.Bool("force", false, "with -store: recompute every job, overwriting cached entries")

		metrics    = flag.String("metrics", "", "write manifest + metrics registry as JSON to this file at exit")
		traceFile  = flag.String("trace", "", "append every sweep job's causal event chain to this JSONL file (analyze with opmprof, export to Perfetto)")
		logLevel   = flag.String("log-level", "", "structured logging on stderr at this level (debug|info|warn|error; off when empty)")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON instead of text (needs -log-level)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof, Go runtime vars (/debug/vars) and the live registry (/metrics, /metrics/prom) on this address (e.g. localhost:6060)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()

	if *list {
		fmt.Print(harness.List())
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "opmbench: -exp required (or -list); e.g. -exp fig7 or -exp all")
		return 2
	}
	if *resume && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "opmbench: -resume requires -store")
		return 2
	}
	if *force && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "opmbench: -force requires -store")
		return 2
	}
	if *resume {
		// -resume promises to continue earlier work; a missing directory
		// means there is nothing to continue (likely a typo'd path).
		if _, err := os.Stat(*storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "opmbench: -resume: nothing to resume at %s: %v\n", *storeDir, err)
			return 2
		}
	}

	var ids []string
	switch *exp {
	case "all":
		ids = harness.IDs()
	case "all+ext":
		ids = append(harness.IDs(), harness.ExtensionIDs()...)
	case "ext":
		ids = harness.ExtensionIDs()
	default:
		ids = strings.Split(*exp, ",")
	}

	// Observability setup: registry (for -metrics/-pprof), structured
	// logger, run manifest, CPU profile. All of it is off by default
	// and none of it touches stdout.
	var reg *obs.Registry
	if *metrics != "" || *pprofAddr != "" {
		reg = obs.NewRegistry()
	}
	var logger *slog.Logger
	if *logLevel != "" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		logger = obs.NewLogger(os.Stderr, lvl, *logJSON)
	}
	manifest := obs.NewManifest("opmbench")
	manifest.Workers = *workers
	manifest.Machines = harness.PlatformMatrix()
	manifest.ConfigHash = obs.Hash(*exp, *full, *workers, timeout.String(), *storeDir, *resume, *force, *strict)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *pprofAddr != "" {
		srv, addr, err := obs.Serve(*pprofAddr, reg, func() *obs.Manifest { return manifest })
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "opmbench: telemetry on http://%s (/debug/pprof/, /debug/vars, /metrics)\n", addr)
	}
	// The dump runs deferred so a -timeout abort still leaves a
	// metrics file behind for the post-mortem.
	if *metrics != "" {
		defer func() {
			manifest.Finish()
			if err := reg.WriteFile(*metrics, manifest); err != nil {
				fmt.Fprintln(os.Stderr, "opmbench:", err)
			}
		}()
	}
	if reg != nil {
		defer func() {
			if rep := reg.SpanReport(); rep != "" {
				fmt.Fprint(os.Stderr, rep)
			}
		}()
	}
	var tracer *obs.Tracer
	if *traceFile != "" {
		var err error
		if tracer, err = obs.CreateTracer(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		defer func() {
			emitted := tracer.Emitted()
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "opmbench: trace sink:", err)
			}
			fmt.Fprintf(os.Stderr, "opmbench: trace: %d events -> %s (opmprof -trace %s)\n",
				emitted, *traceFile, *traceFile)
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := harness.Options{Full: *full, OutDir: *out, Workers: *workers, Obs: reg, Log: logger, Force: *force, Trace: tracer}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		defer func() {
			stats := st.Stats()
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "opmbench: store close:", err)
				code = max(code, 1)
			}
			fmt.Fprintf(os.Stderr, "opmbench: store %s: %d cached hits, %d misses, %d committed, %d live entries\n",
				*storeDir, stats.Hits, stats.Misses, stats.Commits, st.Len())
		}()
		opt.Store = st
	}
	if *progress {
		// Redraw at most ten times a second, and at each sweep's end: a
		// warm sweep resolves a cached cell every few microseconds.
		// Progress calls are serialized, so last needs no lock.
		var last time.Time
		opt.Progress = func(p sweep.Progress) {
			if p.Done < p.Total && time.Since(last) < 100*time.Millisecond {
				return
			}
			last = time.Now()
			fmt.Fprintf(os.Stderr, "\rsweep %d/%d (eta %s)   ", p.Done, p.Total, p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	failed := false
	for _, id := range ids {
		e, err := harness.Get(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		t0 := time.Now()
		rep, err := e.Run(ctx, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opmbench: %s failed: %v\n", e.ID, err)
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "opmbench: -timeout exceeded, stopping")
				return 1
			}
			failed = true
			continue
		}
		if *timeRun {
			fmt.Printf("==== %s [%s] ====\n", e.Title, time.Since(t0).Round(time.Millisecond))
		} else {
			fmt.Printf("==== %s ====\n", e.Title)
		}
		if !*quiet {
			fmt.Println(rep.Text)
		}
		for _, f := range rep.Findings {
			fmt.Println("finding:", f)
		}
		if err := rep.WriteCSVs(*out); err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			failed = true
		}
		if *strict && rep.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "opmbench: -strict: %s dropped %d job(s); partial report written\n", e.ID, rep.Dropped)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		return 1
	}
	return 0
}
