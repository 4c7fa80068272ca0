package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// reportBytes flattens the parts of a report that the warm==cold
// contract covers: rendered text, findings, and every CSV series.
func reportBytes(rep *Report) string {
	var b strings.Builder
	b.WriteString(rep.Text)
	for _, f := range rep.Findings {
		b.WriteString(f)
		b.WriteString("\n")
	}
	return b.String()
}

func mustOpen(t *testing.T, dir string, reg *obs.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runReport runs one experiment at the tiny scale, against st when it
// is non-nil, and returns its report.
func runReport(t *testing.T, id string, st *store.Store) *Report {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	opt := tiny
	opt.Store = st
	rep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
}

// requireEqualReports asserts two reports render byte-identical Text,
// Findings and CSV series.
func requireEqualReports(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if reportBytes(a) != reportBytes(b) {
		t.Fatalf("%s: Text/Findings diverge", label)
	}
	if !reflect.DeepEqual(a.CSV, b.CSV) {
		t.Fatalf("%s: CSV series diverge", label)
	}
}

// journalFrameHeaderLen is the store's per-record length+CRC header.
const journalFrameHeaderLen = 8

// journalFrames reads the journal under dir and returns its path, its
// bytes and the start offset of every frame, walking the layout the
// store writes: a magic line, then [4-byte big-endian payload
// length][4-byte CRC][payload] records.
func journalFrames(t *testing.T, dir string) (string, []byte, []int) {
	t.Helper()
	path := filepath.Join(dir, "journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames []int
	for off := bytes.IndexByte(data, '\n') + 1; off+journalFrameHeaderLen <= len(data); {
		frames = append(frames, off)
		off += journalFrameHeaderLen + int(binary.BigEndian.Uint32(data[off:off+4]))
	}
	return path, data, frames
}

// coldJournal runs fig9 cold into a fresh store under a temp dir,
// closes it, and returns the dir.
func coldJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st := mustOpen(t, dir, nil)
	runReport(t, "fig9", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// flipEveryOtherFrame flips one payload byte in every other frame of
// the journal under dir and returns how many frames it damaged. The
// last frame stays whole: a damaged final frame reads as a torn tail,
// which the open truncates instead of counting.
func flipEveryOtherFrame(t *testing.T, dir string) int {
	t.Helper()
	path, data, frames := journalFrames(t, dir)
	flipped := 0
	for i := 0; i < len(frames)-1; i += 2 {
		data[frames[i]+journalFrameHeaderLen] ^= 0x80
		flipped++
	}
	if flipped < 2 {
		t.Fatalf("fig9 journaled %d frames; too few to damage every other one", len(frames))
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return flipped
}

// TestChaosStoreCorruptWritesRecompute checks the silent-damage path
// end to end: a cold fig9 run journals its cells, one payload byte is
// flipped on disk in every other frame, the reopened store drops
// exactly those records, and the rerun recomputes them into a report
// byte-identical to a run without a store.
func TestChaosStoreCorruptWritesRecompute(t *testing.T) {
	clean := runReport(t, "fig9", nil)
	dir := coldJournal(t)
	flipped := flipEveryOtherFrame(t, dir)

	reg := obs.NewRegistry()
	st2 := mustOpen(t, dir, reg)
	defer st2.Close()
	if got := reg.Snapshot().Counters["store/corrupt_records"]; got != int64(flipped) {
		t.Fatalf("reopen dropped %d records, want the %d flipped", got, flipped)
	}
	rerun := runReport(t, "fig9", st2)
	requireEqualReports(t, "recomputed vs store-less", rerun, clean)
	if st2.Stats().Misses == 0 {
		t.Fatal("no cell recomputed after journal damage")
	}
}

// TestChaosStoreTornWrites checks a crash mid-append at the report
// level: the last journal frame of a cold fig9 run is cut short on
// disk, the reopen truncates it without counting a corrupt record,
// the rerun recomputes exactly that cell into a byte-identical report
// and recommits it, and the journal then reopens clean and serves a
// fully warm, byte-identical run.
func TestChaosStoreTornWrites(t *testing.T) {
	clean := runReport(t, "fig9", nil)
	dir := coldJournal(t)
	path, data, frames := journalFrames(t, dir)
	last := frames[len(frames)-1]
	torn := last + journalFrameHeaderLen + (len(data)-last-journalFrameHeaderLen)/2
	if err := os.WriteFile(path, data[:torn], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st := mustOpen(t, dir, reg)
	if stats := st.Stats(); stats.TruncatedBytes != int64(torn-last) || stats.Corrupt != 0 {
		t.Fatalf("torn tail: truncated %d bytes, %d corrupt; want %d, 0", stats.TruncatedBytes, stats.Corrupt, torn-last)
	}
	if got := st.Len(); got != len(frames)-1 {
		t.Fatalf("reopen kept %d records, want %d", got, len(frames)-1)
	}
	rerun := runReport(t, "fig9", st)
	requireEqualReports(t, "torn-recovered vs store-less", rerun, clean)
	if misses := st.Stats().Misses; misses != 1 {
		t.Fatalf("rerun recomputed %d cells, want the 1 torn one", misses)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, nil)
	defer st2.Close()
	if stats := st2.Stats(); stats.TruncatedBytes != 0 || stats.Corrupt != 0 || st2.Len() != len(frames) {
		t.Fatalf("recovered journal reopened damaged: %d records, %+v", st2.Len(), stats)
	}
	warm := runReport(t, "fig9", st2)
	requireEqualReports(t, "warm-after-recovery vs store-less", warm, clean)
	if misses := st2.Stats().Misses; misses != 0 {
		t.Fatalf("warm run after recovery recomputed %d cells", misses)
	}
}

// TestChaosExhaustionDegradesGracefully checks both ends of permanent
// job failure. With a third of the fig9 matrices failing, the run
// completes: every failure is counted in Dropped with one WARNING
// finding, the report keeps its body and CSV series, and a store-backed
// run commits exactly the surviving cells. With every matrix failing,
// there is nothing to render, and the run ends with an error instead
// of an empty report.
func TestChaosExhaustionDegradesGracefully(t *testing.T) {
	specs := suite(platform.Broadwell(), tiny)
	doomed := map[string]bool{}
	for i, s := range specs {
		if i%3 == 0 {
			doomed[s.Name] = true
		}
	}
	sparseJobHook = func(s sparse.Spec) error {
		if doomed[s.Name] {
			return fmt.Errorf("injected failure for %s", s.Name)
		}
		return nil
	}
	defer func() { sparseJobHook = nil }()

	st := mustOpen(t, t.TempDir(), nil)
	rep := runReport(t, "fig9", st)
	if rep.Dropped != len(doomed) {
		t.Fatalf("rep.Dropped = %d, want %d", rep.Dropped, len(doomed))
	}
	warnings := 0
	for _, f := range rep.Findings {
		if strings.HasPrefix(f, "WARNING: dropped ") {
			warnings++
		}
	}
	if warnings != rep.Dropped {
		t.Fatalf("%d dropped cells but %d WARNING findings", rep.Dropped, warnings)
	}
	if rep.Text == "" || len(rep.CSV) == 0 {
		t.Fatal("degraded run lost its report body")
	}
	if got, want := st.Len(), len(specs)-len(doomed); got != want {
		t.Fatalf("store holds %d cells after the degraded run, want the %d survivors", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, s := range specs {
		doomed[s.Name] = true
	}
	e, err := Get("fig9")
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := e.Run(context.Background(), tiny); err == nil {
		t.Fatalf("every matrix failed but the run returned a report (%d dropped)", rep.Dropped)
	}
}

// TestCellDigestGolden pins the store digests of one curve cell and
// one dense cell to the bytes existing stores were written under. A
// digest that moves orphans every journaled cell, so model-side or
// simulator work must leave these values unchanged; only a deliberate
// core.ModelVersion bump may rewrite them.
func TestCellDigestGolden(t *testing.T) {
	spec, err := NewCurveSpec("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	dense := core.DenseJob{Machine: spec.Machines[0], Kind: trace.DenseGEMM, N: 1024, NB: 128}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"curve", CellDigest(core.Exact, CurveSweepID("Stream"), spec.ConfigHash(), CurveCellKey(1<<20)),
			"3d1cbd7f6f40dd4220b813746bc45b928b7430faf127a69db958bb86ee279b5a"},
		{"dense", CellDigest(core.Exact, DenseSweepID, "", DenseKey(dense)),
			"95a0895d06bca0bd78d70494d502637973b4d3e6cb620a3b770a078c1d62b045"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s cell digest = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

// TestDenseKeysMatchSprintf holds the two dense cell keys to the
// fmt.Sprintf formulas they were first written as, kept here as the
// reference: DenseKey, the store job key the dense digest hashes, and
// core.DenseCellKey, the cell's identity at the result fault point.
// It covers every machine of every platform, both dense kinds, the
// full fig7/8/15/16 orders and blocks, and N and NB values of -1, 0
// and 1<<40.
func TestDenseKeysMatchSprintf(t *testing.T) {
	edges := []int{-1, 0, 1 << 40}
	for _, p := range platform.All() {
		machines, err := core.Machines(p)
		if err != nil {
			t.Fatal(err)
		}
		orders, blocks := denseGrid(p, true)
		orders = append(orders, edges...)
		blocks = append(blocks, edges...)
		for _, m := range machines {
			for _, kind := range []trace.DenseKind{trace.DenseGEMM, trace.DenseCholesky} {
				for _, nb := range blocks {
					for _, n := range orders {
						j := core.DenseJob{Machine: m, Kind: kind, N: n, NB: nb}
						if got, want := DenseKey(j), fmt.Sprintf("%s|%s|%d|%d", m.ConfigHash(), kind, n, nb); got != want {
							t.Fatalf("DenseKey = %q, want %q", got, want)
						}
						if got, want := core.DenseCellKey(j), fmt.Sprintf("%s|n=%d|nb=%d|%s", kind, n, nb, m.Label()); got != want {
							t.Fatalf("core.DenseCellKey = %q, want %q", got, want)
						}
					}
				}
			}
		}
	}
}

// TestDenseKeysAllocateOnce: both dense keys are built in a stack
// buffer, so the returned string is each one's only allocation. The
// collector is off while counting, as a collection adds the runtime's
// own allocations to the count.
func TestDenseKeysAllocateOnce(t *testing.T) {
	m, err := core.NewMachine(platform.KNL(), memsim.ModeCache)
	if err != nil {
		t.Fatal(err)
	}
	j := core.DenseJob{Machine: m, Kind: trace.DenseGEMM, N: 16640, NB: 1024}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(20, func() { DenseKey(j) }); got != 1 {
		t.Errorf("DenseKey: %v allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(20, func() { core.DenseCellKey(j) }); got != 1 {
		t.Errorf("core.DenseCellKey: %v allocations, want 1", got)
	}
}

// TestWarmRunByteIdentical is the tentpole contract: a fully-warm run
// against a populated store produces byte-identical output to a bare
// run while executing zero simulator jobs — every point comes out of
// the journal.
func TestWarmRunByteIdentical(t *testing.T) {
	e, _ := Get("fig9")
	jobs := len(suite(platform.Broadwell(), tiny))

	bare, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// Cold run: everything misses, everything is committed.
	coldReg := obs.NewRegistry()
	st := mustOpen(t, dir, coldReg)
	opt := tiny
	opt.Store = st
	cold, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := coldReg.Snapshot()
	if snap.Counters["store/misses"] != int64(jobs) || snap.Counters["store/commits"] != int64(jobs) {
		t.Fatalf("cold run: misses=%d commits=%d, want %d each",
			snap.Counters["store/misses"], snap.Counters["store/commits"], jobs)
	}

	// Warm run: all hits, zero jobs reach the sweep pool.
	warmReg := obs.NewRegistry()
	st = mustOpen(t, dir, warmReg)
	opt = tiny
	opt.Store = st
	opt.Obs = warmReg
	warm, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap = warmReg.Snapshot()
	if snap.Counters["store/hits"] != int64(jobs) {
		t.Fatalf("warm run: %d hits, want %d", snap.Counters["store/hits"], jobs)
	}
	if snap.Counters["sweep/jobs"] != 0 {
		t.Fatalf("warm run executed %d simulator jobs, want 0", snap.Counters["sweep/jobs"])
	}

	if got, want := reportBytes(warm), reportBytes(bare); got != want {
		t.Error("warm report differs from bare report")
	}
	if got, want := reportBytes(cold), reportBytes(bare); got != want {
		t.Error("cold (store-enabled) report differs from bare report")
	}
	if !reflect.DeepEqual(warm.CSV, bare.CSV) || !reflect.DeepEqual(cold.CSV, bare.CSV) {
		t.Error("CSV series differ between bare/cold/warm runs")
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Force disables lookups: the same populated store yields no hits
	// and every job runs again — with identical bytes.
	forceReg := obs.NewRegistry()
	forced := mustOpen(t, dir, forceReg)
	opt = tiny
	opt.Store = forced
	opt.Obs = forceReg
	opt.Force = true
	frep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap = forceReg.Snapshot()
	if snap.Counters["store/hits"] != 0 {
		t.Fatalf("force run: %d hits, want 0", snap.Counters["store/hits"])
	}
	if snap.Counters["sweep/jobs"] != int64(jobs) {
		t.Fatalf("force run executed %d jobs, want %d", snap.Counters["sweep/jobs"], jobs)
	}
	if got, want := reportBytes(frep), reportBytes(bare); got != want {
		t.Error("forced report differs from bare report")
	}
	if err := forced.Close(); err != nil {
		t.Fatal(err)
	}
}

// storeLen opens the store read-style, reads its live-entry count, and
// closes it again.
func storeLen(t *testing.T, dir string) int {
	t.Helper()
	st := mustOpen(t, dir, nil)
	n := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestResumeEquivalence kills a sequential sweep partway through via
// context cancellation, then resumes against the same store: only the
// remaining jobs execute, and the final report is byte-identical to an
// uninterrupted run.
func TestResumeEquivalence(t *testing.T) {
	e, _ := Get("fig12")

	bare, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()

	// First attempt: cancel after two jobs complete. Their results are
	// already journaled (Put is the checkpoint), so the crash loses
	// nothing that finished.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var total int64
	opt := tiny
	opt.Workers = 1
	opt.Store = mustOpen(t, dir, nil)
	opt.Progress = func(p sweep.Progress) {
		total = int64(p.Total)
		if p.Done >= 2 {
			cancel()
		}
	}
	if _, err := e.Run(ctx, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if err := opt.Store.Close(); err != nil {
		t.Fatal(err)
	}
	checkpointed := int64(storeLen(t, dir))
	if checkpointed < 2 || checkpointed >= total {
		t.Fatalf("store holds %d of %d jobs after interrupt, want a strict partial >= 2", checkpointed, total)
	}

	// Resume: a fresh context against the same store completes only the
	// remaining jobs.
	reg := obs.NewRegistry()
	opt = tiny
	opt.Store = mustOpen(t, dir, reg)
	opt.Obs = reg
	resumed, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["store/hits"] != checkpointed {
		t.Fatalf("resume: %d hits, want %d", snap.Counters["store/hits"], checkpointed)
	}
	if snap.Counters["sweep/jobs"] != total-checkpointed {
		t.Fatalf("resume executed %d jobs, want %d", snap.Counters["sweep/jobs"], total-checkpointed)
	}

	if got, want := reportBytes(resumed), reportBytes(bare); got != want {
		t.Error("resumed report differs from uninterrupted report")
	}
	if !reflect.DeepEqual(resumed.CSV, bare.CSV) {
		t.Error("resumed CSV series differ from uninterrupted run")
	}
	if err := opt.Store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedCountsFailedJobs: the report's Dropped field (which
// -strict keys off) counts exactly the jobs that fell out of the sweep.
func TestDroppedCountsFailedJobs(t *testing.T) {
	specs := suite(platform.Broadwell(), tiny)
	doomed := specs[1].Name
	sparseJobHook = func(s sparse.Spec) error {
		if s.Name == doomed {
			return fmt.Errorf("injected failure for %s", s.Name)
		}
		return nil
	}
	defer func() { sparseJobHook = nil }()

	e, _ := Get("fig9")
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 1 {
		t.Fatalf("rep.Dropped = %d, want 1", rep.Dropped)
	}
}

// TestFailedJobsAreNotCached: a job that errors must not poison the
// store; rerunning without the failure injection recomputes it.
func TestFailedJobsAreNotCached(t *testing.T) {
	specs := suite(platform.Broadwell(), tiny)
	doomed := specs[0].Name
	sparseJobHook = func(s sparse.Spec) error {
		if s.Name == doomed {
			return fmt.Errorf("injected failure for %s", s.Name)
		}
		return nil
	}

	dir := t.TempDir()
	e, _ := Get("fig9")
	opt := tiny
	opt.Store = mustOpen(t, dir, nil)
	if _, err := e.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if err := opt.Store.Close(); err != nil {
		t.Fatal(err)
	}
	sparseJobHook = nil

	if got, want := storeLen(t, dir), len(specs)-1; got != want {
		t.Fatalf("store holds %d entries after one dropped job, want %d", got, want)
	}

	reg := obs.NewRegistry()
	opt = tiny
	opt.Store = mustOpen(t, dir, reg)
	rep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("rerun still dropped %d jobs", rep.Dropped)
	}
	snap := reg.Snapshot()
	if snap.Counters["store/misses"] != 1 || snap.Counters["store/hits"] != int64(len(specs)-1) {
		t.Fatalf("rerun: hits=%d misses=%d, want %d/1",
			snap.Counters["store/hits"], snap.Counters["store/misses"], len(specs)-1)
	}
	if err := opt.Store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGetUnknownListsRegistry: a typo'd -exp should teach, not just
// reject — the error carries the full experiment listing.
func TestGetUnknownListsRegistry(t *testing.T) {
	_, err := Get("fig999")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "known experiments") {
		t.Fatalf("error does not list experiments: %v", err)
	}
	for _, id := range []string{"fig9", "table4", "fig27"} {
		if !strings.Contains(msg, id) {
			t.Fatalf("error listing missing %s:\n%s", id, msg)
		}
	}
}
