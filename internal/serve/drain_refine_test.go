package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
)

// Graceful drain vs background exact refinements: an accepted
// refinement either completes and commits before Drain returns, or —
// when drain has already begun — is dropped cleanly without ever
// touching the journal. There is no third state where a drain
// interleaves with a half-written refinement commit.

// reopenClean closes a drained daemon's store and reopens its
// directory: the journal it left behind must replay with no corrupt
// record and no torn tail.
func reopenClean(t *testing.T, st *store.Store, dir string) *store.Store {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reopened.Close() })
	if stats := reopened.Stats(); stats.Corrupt != 0 || stats.TruncatedBytes != 0 {
		t.Fatalf("post-drain journal damaged: %+v", stats)
	}
	return reopened
}

// TestServeDrainWaitsForRefinement proves the commit half: a
// twin-first refinement holds its drain slot from the moment it is
// accepted (before the triggering request even returns), so a Drain
// racing it blocks until the exact cell is journaled — and the journal
// it leaves behind reopens with zero corruption and no torn tail.
func TestServeDrainWaitsForRefinement(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const fp = int64(1 << 20)
	q := QueryRequest{Platform: "broadwell", Mode: "edram", Kernel: "Stream",
		Footprint: fp, Estimator: "twin-first"}
	decodeQuery(t, postQuery(t, h, "/v1/query", q))

	// The refinement was accepted synchronously inside the query, so
	// Drain must now wait for its commit — no WaitRefinements first.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := reg.Counter("serve/refinements").Value(); v != 1 {
		t.Fatalf("drain returned with serve/refinements = %d, want 1", v)
	}

	spec, err := harness.NewCurveSpec("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	exactDigest := harness.CellDigest(core.Exact, harness.CurveSweepID("Stream"),
		spec.ConfigHash(), harness.CurveCellKey(fp))
	if _, ok := st.GetRaw(exactDigest); !ok {
		t.Fatal("drain returned before the refinement journaled the exact cell")
	}

	// The journal the drained daemon leaves behind is clean: it
	// reopens with every committed frame intact — the twin cell and
	// the exact refinement — and no torn tail.
	reopened := reopenClean(t, st, dir)
	if n := reopened.Len(); n != 2 {
		t.Fatalf("post-drain journal holds %d entries, want twin + exact", n)
	}
	if _, ok := reopened.GetRaw(exactDigest); !ok {
		t.Fatal("exact refinement missing from the reopened journal")
	}
}

// TestServeDrainDropsUnstartedRefinement proves the drop half: once
// drain has begun, a refinement that has not yet claimed its slot is
// refused by begin() and vanishes without a trace — no goroutine, no
// refining entry, no journal write, not even a partial one.
func TestServeDrainDropsUnstartedRefinement(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st, err := store.Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: st, Registry: reg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Reach under the HTTP layer: the server is draining, and a
	// twin-first answer tries to spawn its refinement anyway.
	req := QueryRequest{Platform: "broadwell", Mode: "edram", Kernel: "Stream",
		Footprint: 1 << 20, Estimator: "twin-first"}
	c, err := srv.cat.resolve(req, srv.eng)
	if err != nil {
		t.Fatal(err)
	}
	exactDigest := c.digestFor(srv.estimators["exact"])
	srv.spawnRefinement(req, c, exactDigest, "trace-drop", "key-drop")

	// Dropped cleanly: no in-flight marker survives, WaitRefinements
	// has nothing to wait for, and nothing was committed or even
	// started against the journal.
	if err := srv.WaitRefinements(ctx); err != nil {
		t.Fatal(err)
	}
	srv.refineMu.Lock()
	pending := len(srv.refining)
	srv.refineMu.Unlock()
	if pending != 0 {
		t.Fatalf("%d refinements marked in flight after drop", pending)
	}
	if v := reg.Counter("serve/refinements").Value(); v != 0 {
		t.Fatalf("dropped refinement committed: counter = %d", v)
	}
	if st.Len() != 0 {
		t.Fatalf("dropped refinement wrote %d cells", st.Len())
	}
	reopened := reopenClean(t, st, dir)
	if n := reopened.Len(); n != 0 {
		t.Fatalf("dropped refinement touched the journal: %d entries", n)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if string(journal) != "OPMSTORE1\n" {
		t.Fatalf("dropped refinement touched the journal: %q", journal)
	}
}
