// Command opmbench reproduces the paper's tables and figures. Each
// experiment renders its figure as text, prints headline findings, and
// (with -out) writes CSV series suitable for replotting. Sweeps run on
// the concurrent sweep engine; -workers bounds its pool and -timeout
// aborts a run that exceeds its wall-clock budget.
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
	"sort"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/resilience"
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
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit); bounds total wall clock across every experiment, unlike -job-timeout which bounds one sweep job attempt")
		progress = flag.Bool("progress", false, "report sweep progress (done/total/ETA) on stderr")
		strict   = flag.Bool("strict", false, "exit non-zero when a sweep dropped jobs (partial reports are still written)")

		retries    = flag.Int("retries", 0, "retry transient sweep-job failures up to this many extra attempts (capped exponential backoff, seeded jitter)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-attempt deadline for one sweep job (0 = none); an attempt that exceeds it fails retryably and counts toward -retries, while -timeout still bounds the whole run")
		breaker    = flag.Int("breaker", 0, "trip a per-sweep circuit breaker after this many consecutive dropped jobs, failing the sweep's remaining jobs fast (0 = off)")
		faults     = flag.String("faults", "", "chaos fault-injection spec, e.g. \"seed=7,job:transient@0.1,store:torn@0.5\" (points: job, result, store; kinds: transient, permanent, panic, delay, corrupt, torn; see README fault grammar)")

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
	if *metrics != "" || *pprofAddr != "" || *faults != "" {
		// A chaos run always gets a registry: the fault/retry/breaker
		// counters are the run's evidence of what actually fired.
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
	if *retries > 0 || *jobTimeout > 0 || *breaker > 0 {
		opt.Resilience = &resilience.Policy{
			MaxAttempts:      *retries + 1,
			JobTimeout:       *jobTimeout,
			BreakerThreshold: *breaker,
		}
	}
	var inj *faultinject.Injector
	if *faults != "" {
		var err error
		if inj, err = faultinject.Parse(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		// Chaos without retries silently drops every faulted cell;
		// faults are injected to be healed, so say what is active.
		inj.Bind(reg)
		opt.Inject = inj
		fmt.Fprintf(os.Stderr, "opmbench: chaos active: %s (retries=%d, job-timeout=%s, breaker=%d)\n",
			inj, *retries, *jobTimeout, *breaker)
		defer func() {
			fmt.Fprintf(os.Stderr, "opmbench: chaos counters:\n%s", chaosCounters(reg))
		}()
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmbench:", err)
			return 2
		}
		st.SetInjector(inj)
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
		opt.Progress = func(p sweep.Progress) {
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

// chaosCounters renders the fault-injection and resilience counters of
// a chaos run, sorted by name — the stderr evidence of what fired.
func chaosCounters(reg *obs.Registry) string {
	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "fault/") || strings.HasPrefix(name, "resilience/") ||
			name == "store/torn_writes" || name == "store/corrupt_writes" || name == "store/write_repairs" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "  %-36s %d\n", name, snap.Counters[name])
	}
	return b.String()
}
