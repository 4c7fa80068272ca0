package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sparse"
)

// TestSparseWarningsSurfaceEachDroppedMatrix fails a deterministic
// subset of the fig9 suite through the test seam and checks that every
// sweep.JobError surfaces as exactly one report warning, in submission
// order, even under a parallel sweep.
func TestSparseWarningsSurfaceEachDroppedMatrix(t *testing.T) {
	opt := tiny
	opt.Workers = 4

	specs := suite(platform.Broadwell(), opt)
	if len(specs) < 3 {
		t.Fatalf("suite too small for the test: %d specs", len(specs))
	}

	// Fail every third matrix by name so failures are independent of
	// worker scheduling.
	doomed := map[string]int{} // name -> submission index
	for i, s := range specs {
		if i%3 == 1 {
			doomed[s.Name] = i
		}
	}
	sparseJobHook = func(s sparse.Spec) error {
		if _, ok := doomed[s.Name]; ok {
			return fmt.Errorf("injected failure for %s", s.Name)
		}
		return nil
	}
	defer func() { sparseJobHook = nil }()

	e, _ := Get("fig9")
	rep, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	var warnings []string
	for _, f := range rep.Findings {
		if strings.HasPrefix(f, "WARNING: dropped ") {
			warnings = append(warnings, f)
		}
	}
	if len(warnings) != len(doomed) {
		t.Fatalf("%d warnings for %d injected failures:\n%s",
			len(warnings), len(doomed), strings.Join(warnings, "\n"))
	}

	// Each warning carries its job index ("job %d: ...") and they must
	// appear in submission order, each exactly once.
	var want []string
	for i, s := range specs {
		if _, ok := doomed[s.Name]; ok {
			want = append(want, fmt.Sprintf("WARNING: dropped job %d: injected failure for %s", i, s.Name))
		}
	}
	if !reflect.DeepEqual(warnings, want) {
		t.Fatalf("warnings out of order or malformed:\ngot  %v\nwant %v", warnings, want)
	}
}

// TestObsDoesNotChangeReportBytes: running with a live registry must
// leave the report's Text, CSV, and Findings byte-identical to a bare
// run — and must actually populate the registry.
func TestObsDoesNotChangeReportBytes(t *testing.T) {
	e, _ := Get("fig9")

	bare, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}

	opt := tiny
	opt.Obs = obs.NewRegistry()
	instr, err := e.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	if bare.Text != instr.Text {
		t.Error("report text differs with observability enabled")
	}
	if !reflect.DeepEqual(bare.Findings, instr.Findings) {
		t.Errorf("findings differ:\nbare  %v\nobs   %v", bare.Findings, instr.Findings)
	}
	if !reflect.DeepEqual(bare.CSV, instr.CSV) {
		t.Error("CSV series differ with observability enabled")
	}

	snap := opt.Obs.Snapshot()
	if snap.Counters["sweep/jobs"] <= 0 {
		t.Error("sweep/jobs not recorded")
	}
	if snap.Counters["memsim/l1/hits"] <= 0 {
		t.Error("memsim/l1/hits not recorded")
	}
	h, ok := snap.Histograms["sweep/job_latency"]
	if !ok || h.Count != snap.Counters["sweep/jobs"] {
		t.Errorf("job latency histogram missing or wrong count: %+v", h)
	}
	if u, ok := snap.Gauges["sweep/worker_utilization"]; !ok || u <= 0 || u > 1 {
		t.Errorf("worker utilization gauge = %v, %v", u, ok)
	}
	// Spans are histogram observations: one per experiment run, one
	// per sweep and render phase.
	for _, name := range []string{"exp/fig9", "sparse/broadwell/SpMV/sweep", "sparse/broadwell/SpMV/render"} {
		if h := snap.Histograms[name]; h.Count != 1 {
			t.Errorf("span histogram %s count = %d, want 1", name, h.Count)
		}
	}
}
