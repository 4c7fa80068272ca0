package shard_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// The process-chaos suite: every injected process-level failure —
// worker kill -9, worker hang, shard-journal torn tail, coordinator
// crash — and the merged store still comes out byte-identical to the
// sequential single-process run. Each test spawns real worker
// processes (the re-exec'd test binary; see TestMain), so the suite is
// excluded from the -short quick tier and runs under -race in the
// extended CI job.

func runChaos(t *testing.T, faults string) (*shard.Report, shard.Spec, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns worker processes; excluded from the quick tier")
	}
	spec := twinSpec()
	dir := t.TempDir()
	rep, err := shard.Run(context.Background(), fastOpts(spec, dir, faults))
	if err != nil {
		t.Fatal(err)
	}
	return rep, spec, dir
}

// TestProcessChaosKill injects kill -9 into roughly half the cells'
// workers: every shard's first generation dies mid-list, the
// supervisor restarts each with backoff, and the merge is exact.
func TestProcessChaosKill(t *testing.T) {
	rep, spec, _ := runChaos(t, "seed=11,proc:kill@0.5")
	if rep.Restarts == 0 {
		t.Fatalf("kill rate 0.5 caused no restarts: %+v", rep)
	}
	if rep.Merge.Quarantined != 0 {
		t.Fatalf("kills quarantined cells: %+v", rep.Merge)
	}
	requireIdentical(t, spec, rep.OutDir)
}

// TestProcessChaosHang injects hangs: the worker freezes its heartbeat
// and blocks forever, the supervisor's staleness detector kills it,
// and the restart path recovers. Proves liveness detection, not just
// exit handling.
func TestProcessChaosHang(t *testing.T) {
	rep, spec, _ := runChaos(t, "seed=5,proc:hang@0.3")
	if rep.Kills == 0 {
		t.Fatalf("hang rate 0.3 triggered no staleness kills: %+v", rep)
	}
	if rep.Restarts == 0 {
		t.Fatalf("killed workers were not restarted: %+v", rep)
	}
	requireIdentical(t, spec, rep.OutDir)
}

// TestProcessChaosTornTail injects crash-mid-append: workers leave a
// half-written frame at their journal tail and die. The merge's
// read-only scan steps over the torn bytes, the restarted worker
// recomputes the lost cell, and the canonical bytes are exact.
func TestProcessChaosTornTail(t *testing.T) {
	rep, spec, _ := runChaos(t, "seed=9,proc:torn@0.5")
	if rep.Restarts == 0 {
		t.Fatalf("torn rate 0.5 caused no restarts: %+v", rep)
	}
	if rep.Merge.Torn == 0 {
		t.Fatalf("no torn tail reached the merge scan: %+v", rep.Merge)
	}
	requireIdentical(t, spec, rep.OutDir)
}

// TestCoordinatorCrashResume kills the coordinator itself mid-sweep
// (workers become orphans, journals unread) and resumes with a fresh
// incarnation: committed cells are never recomputed, orphan journals
// are read without being truncated, and the merge is exact.
func TestCoordinatorCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; excluded from the quick tier")
	}
	spec := twinSpec()
	dir := t.TempDir()
	opt := fastOpts(spec, dir, "seed=2,coord:crash@1")

	if _, err := shard.Run(context.Background(), opt); !errors.Is(err, shard.ErrInjectedCrash) {
		t.Fatalf("first incarnation: want ErrInjectedCrash, got %v", err)
	}

	opt.Generation = 1 // the crash rule heals for the resumed incarnation
	rep, err := shard.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed == 0 {
		t.Fatalf("resume recomputed everything (crash fired before any commit?): %+v", rep)
	}
	if rep.Merge.Quarantined != 0 {
		t.Fatalf("resume quarantined cells: %+v", rep.Merge)
	}
	requireIdentical(t, spec, rep.OutDir)
}

// TestChaosGateShardedByteIdentity is the acceptance gate: worker
// kill -9, shard-journal torn tails, AND a coordinator crash+resume in
// one run — and the merged store is still byte-identical to the
// sequential single-process run.
func TestChaosGateShardedByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; excluded from the quick tier")
	}
	spec := twinSpec()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	opt := fastOpts(spec, dir, "seed=3,proc:kill@0.4,proc:torn@0.3,coord:crash@1")
	opt.Reg = reg

	if _, err := shard.Run(context.Background(), opt); !errors.Is(err, shard.ErrInjectedCrash) {
		t.Fatalf("first incarnation: want ErrInjectedCrash, got %v", err)
	}

	opt.Generation = 1
	rep, err := shard.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Merge.Quarantined != 0 {
		t.Fatalf("chaos gate quarantined cells: %+v", rep.Merge)
	}
	if rep.Resumed == 0 {
		t.Fatalf("crash+resume resumed nothing: %+v", rep)
	}
	requireIdentical(t, spec, rep.OutDir)

	// The chaos must actually have bitten: the injector's fired
	// counters prove kills and torn tails happened in worker
	// processes (their exit codes and journals carried the evidence
	// back through the restart path).
	if reg.Counter("shard/restarts").Value() == 0 {
		t.Fatal("no worker was ever restarted — the chaos spec did not bite")
	}
	if reg.Counter("shard/resumed_cells").Value() == 0 {
		t.Fatal("no cell was resumed across the coordinator crash")
	}
}

// TestShardTraceChain checks the coordinator emits its supervision
// events and the merge joins each cell's store-digest trace chain.
func TestShardTraceChain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; excluded from the quick tier")
	}
	spec := shard.Spec{Platform: "broadwell", Kernels: []string{"Stream"}, Points: 6, Estimator: "twin"}
	dir := t.TempDir()
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	opt := fastOpts(spec, dir, "seed=7,proc:kill@0.5")
	opt.Trace = tr
	rep, err := shard.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Name]++
	}
	if counts[obs.EvShardAssign] != opt.Shards {
		t.Fatalf("assign events: %d, want %d", counts[obs.EvShardAssign], opt.Shards)
	}
	if counts[obs.EvShardRestart] != rep.Restarts {
		t.Fatalf("restart events %d != report restarts %d", counts[obs.EvShardRestart], rep.Restarts)
	}
	if counts[obs.EvShardMerge] != rep.Merge.Cells {
		t.Fatalf("merge events %d != merged cells %d", counts[obs.EvShardMerge], rep.Merge.Cells)
	}
}
