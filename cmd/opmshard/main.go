// Command opmshard runs a curve sweep sharded across supervised
// worker processes and merges the per-shard journals into one
// canonical store, byte-identical to what a sequential single-process
// run writes. The coordinator partitions cells by content digest,
// restarts crashed workers with exponential backoff, kills and
// replaces hung ones (heartbeat staleness), steals work off the
// slowest shard, and survives being killed itself: rerun with
// -generation bumped and it resumes from the shard journals without
// recomputing committed cells.
//
// Usage:
//
//	opmshard -dir run                        # quick-grid curve sweep, N shards
//	opmshard -dir run -shards 8 -full        # full 32-point grid
//	opmshard -dir run -kernels Stream,FFT    # subset of the curve roster
//	opmshard -dir run -estimator twin        # analytic twin cells
//	opmshard -dir run -verify                # also run sequentially and byte-compare
//	opmshard -dir run -faults "seed=7,proc:kill@0.3"   # chaos drill
//	opmshard -dir run -generation 1          # resume after a coordinator crash
//
// Exit codes: 0 success, 1 failure (including quarantined cells or a
// failed -verify), 2 usage error, 3 injected coordinator crash (the
// chaos drill's expected mid-run exit; resume with -generation+1).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

func main() {
	// The re-exec seam: when the coordinator spawns a worker, the
	// child is this same binary with the manifest env var set, and
	// never reaches the CLI below.
	shard.RunWorkerEnv()
	os.Exit(run())
}

func run() int {
	var (
		platform   = flag.String("platform", "broadwell", "curve platform: broadwell or knl")
		kernels    = flag.String("kernels", "", "comma-separated curve kernels (default: Stream,Stencil,FFT)")
		points     = flag.Int("points", 0, "footprint grid points (0 = 16, or 32 with -full)")
		full       = flag.Bool("full", false, "use the paper's full 32-point grid")
		estimator  = flag.String("estimator", "exact", "result estimator: exact, twin, or auto")
		twinMaxErr = flag.Float64("twin-max-err", 0.10, "with -estimator=auto: twin only below this calibrated error bound")

		dir        = flag.String("dir", "", "run directory (worker journals, merged store at <dir>/store)")
		shards     = flag.Int("shards", 4, "worker process count")
		generation = flag.Int("generation", 0, "coordinator incarnation; bump by one when resuming after a crash")
		faults     = flag.String("faults", "", "chaos spec, e.g. \"seed=7,proc:kill@0.3,proc:torn@0.2,coord:crash@1\" (see README fault grammar)")

		heartbeat   = flag.Duration("heartbeat", 100*time.Millisecond, "worker heartbeat period")
		stall       = flag.Duration("stall", 5*time.Second, "kill a worker whose heartbeat froze for this long")
		maxRestarts = flag.Int("max-restarts", 5, "retire a shard after this many restarts and reassign its cells")
		timeout     = flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")

		verify    = flag.Bool("verify", false, "after merging, run the sweep sequentially and fail unless the stores are byte-identical")
		metrics   = flag.String("metrics", "", "write metrics registry as JSON to this file at exit")
		traceFile = flag.String("trace", "", "append coordinator and merge trace events to this JSONL file")
		logLevel  = flag.String("log-level", "", "structured logging on stderr at this level (debug|info|warn|error; off when empty)")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text (needs -log-level)")
	)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "opmshard: -dir required")
		return 2
	}
	spec := shard.Spec{
		Platform:   *platform,
		Points:     *points,
		Full:       *full,
		Estimator:  *estimator,
		TwinMaxErr: *twinMaxErr,
	}
	if *kernels != "" {
		spec.Kernels = strings.Split(*kernels, ",")
	}

	reg := obs.NewRegistry()
	var logger *slog.Logger
	if *logLevel != "" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmshard:", err)
			return 2
		}
		logger = obs.NewLogger(os.Stderr, lvl, *logJSON)
	}
	var tracer *obs.Tracer
	if *traceFile != "" {
		var err error
		if tracer, err = obs.CreateTracer(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "opmshard:", err)
			return 2
		}
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "opmshard: trace sink:", err)
			}
		}()
	}
	manifest := obs.NewManifest("opmshard")
	manifest.ConfigHash = obs.Hash(*platform, *kernels, *points, *full, *estimator, *shards)
	if *metrics != "" {
		defer func() {
			manifest.Finish()
			if err := reg.WriteFile(*metrics, manifest); err != nil {
				fmt.Fprintln(os.Stderr, "opmshard:", err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	rep, err := shard.Run(ctx, shard.Options{
		Spec:           spec,
		Dir:            *dir,
		Shards:         *shards,
		Faults:         *faults,
		Generation:     *generation,
		Reg:            reg,
		Trace:          tracer,
		Log:            logger,
		HeartbeatEvery: *heartbeat,
		StallAfter:     *stall,
		MaxRestarts:    *maxRestarts,
	})
	if errors.Is(err, shard.ErrInjectedCrash) {
		fmt.Fprintf(os.Stderr, "opmshard: injected coordinator crash; resume with -generation %d\n", *generation+1)
		return 3
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "opmshard:", err)
		return 1
	}
	fmt.Printf("opmshard: %d cells (%d resumed, %d computed) across %d spawns: %d restarts, %d kills, %d steals\n",
		rep.Cells, rep.Resumed, rep.Committed, rep.Spawns, rep.Restarts, rep.Kills, rep.Steals)
	fmt.Printf("opmshard: merged %d cells (%d duplicates) -> %s\n", rep.Merge.Cells, rep.Merge.Duplicates, rep.OutDir)
	if rep.Merge.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "opmshard: %d cells QUARANTINED (shards disagreed on bytes): see %s\n",
			rep.Merge.Quarantined, filepath.Join(*dir, "quarantine.json"))
		return 1
	}

	if *verify {
		p, err := shard.NewPlan(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "opmshard:", err)
			return 1
		}
		seqDir := filepath.Join(*dir, "seq")
		if err := shard.RunSequential(ctx, p, seqDir, reg); err != nil {
			fmt.Fprintln(os.Stderr, "opmshard: verify:", err)
			return 1
		}
		for _, name := range []string{"journal", "index.json"} {
			a, err := os.ReadFile(filepath.Join(rep.OutDir, name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "opmshard: verify:", err)
				return 1
			}
			b, err := os.ReadFile(filepath.Join(seqDir, name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "opmshard: verify:", err)
				return 1
			}
			if string(a) != string(b) {
				fmt.Fprintf(os.Stderr, "opmshard: verify FAILED: merged %s diverges from sequential (%d vs %d bytes)\n",
					name, len(a), len(b))
				return 1
			}
		}
		fmt.Println("opmshard: verify ok — merged store byte-identical to sequential run")
	}
	return 0
}
