package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny makes every experiment fast enough for unit tests.
var tiny = Options{Stride: 96, CurvePoints: 6, MaxPaperFootprint: 256 << 20}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table2", "fig1", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "fig23", "fig24", "fig25",
		"table4", "table5", "fig26", "fig27", "fig28", "fig29", "fig30",
	}
	got := map[string]bool{}
	for _, e := range Registry() {
		got[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(IDs()) != len(Registry()) {
		t.Fatal("IDs/Registry mismatch")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("fig1000"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	e, err := Get("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatal("Get(fig7) failed")
	}
}

func TestMachineSetErrors(t *testing.T) {
	if _, _, _, err := machineSet("epyc"); err == nil {
		t.Fatal("unknown platform accepted")
	}
	base, opms, plat, err := machineSet("knl")
	if err != nil || base == nil || len(opms) != 3 || plat.Name != "knl" {
		t.Fatalf("machineSet(knl) = %v/%d/%v", base, len(opms), err)
	}
}

func TestModelExperiments(t *testing.T) {
	for _, id := range []string{"table2", "fig5", "fig6", "fig28", "fig29", "fig30"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(context.Background(), tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.Text == "" || len(rep.Findings) == 0 || len(rep.CSV) == 0 {
			t.Fatalf("%s: incomplete report", id)
		}
	}
}

func TestFig1DensityImproves(t *testing.T) {
	e, _ := Get("fig1")
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "near-peak") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig1 findings missing density comparison: %v", rep.Findings)
	}
}

func TestDenseHeatmaps(t *testing.T) {
	for _, id := range []string{"fig7", "fig15"} {
		e, _ := Get(id)
		rep, err := e.Run(context.Background(), tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(rep.Text, "heat map") {
			t.Fatalf("%s: no heat map rendered", id)
		}
		// One CSV per mode.
		wantCSVs := 2
		if id == "fig15" {
			wantCSVs = 4
		}
		if len(rep.CSV) != wantCSVs {
			t.Fatalf("%s: %d CSVs, want %d", id, len(rep.CSV), wantCSVs)
		}
	}
}

func TestSparseExperimentTiny(t *testing.T) {
	e, _ := Get("fig9")
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "speedup") {
		t.Fatal("missing speedup panel")
	}
	if len(rep.Findings) < 2 {
		t.Fatalf("findings: %v", rep.Findings)
	}
}

func TestCurveExperimentTiny(t *testing.T) {
	e, _ := Get("fig12")
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "GB/s") {
		t.Fatal("Stream figure should be in GB/s")
	}
}

func TestPowerExperimentTiny(t *testing.T) {
	e, _ := Get("fig26")
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Findings, "\n")
	if !strings.Contains(joined, "Eq. 1") {
		t.Fatalf("missing Eq. 1 break-even: %v", rep.Findings)
	}
	if !strings.Contains(joined, "average package power") {
		t.Fatal("missing power delta finding")
	}
}

func TestTablesTiny(t *testing.T) {
	// The tables sweep every kernel on every platform even at tiny
	// scale, which dominates the package's wall clock (~2 min). CI's
	// quick tier (-short) skips it; plain `go test ./...` and
	// scripts/check.sh still run it.
	if testing.Short() {
		t.Skip("full-catalog table sweep is local-only; skipped under -short")
	}
	for _, id := range []string{"table4", "table5"} {
		e, _ := Get(id)
		rep, err := e.Run(context.Background(), tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, kernel := range kernelOrder {
			if !strings.Contains(rep.Text, kernel) {
				t.Fatalf("%s: missing row for %s", id, kernel)
			}
		}
	}
}

func TestWriteCSVs(t *testing.T) {
	dir := t.TempDir()
	rep := &Report{CSV: map[string][]string{
		"a.csv": {"h1,h2", "1,2"},
	}}
	if err := rep.WriteCSVs(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "h1,h2\n1,2\n" {
		t.Fatalf("csv content %q", data)
	}
	// Empty dir is a no-op.
	if err := rep.WriteCSVs(""); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteSelection(t *testing.T) {
	_, _, brd, err := machineSet("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	quick := suite(brd, Options{})
	full := suite(brd, Options{Full: true})
	if len(quick) >= len(full) {
		t.Fatal("quick suite should be smaller")
	}
	for _, sp := range full {
		if sp.PaperFootprint > 1<<30 {
			t.Fatal("Broadwell suite must cap at 1GB")
		}
	}
	_, _, knl, err := machineSet("knl")
	if err != nil {
		t.Fatal(err)
	}
	if len(suite(knl, Options{Full: true})) != 968 {
		t.Fatalf("KNL full suite = %d, want 968", len(suite(knl, Options{Full: true})))
	}
}

func TestRepresentativeWorkloads(t *testing.T) {
	base, _, _, err := machineSet("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kernel := range kernelOrder {
		run, err := representativeWorkload("broadwell", kernel)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		r, err := run(ctx, nil, nil, base, "test|"+kernel)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		if r.GFlops <= 0 {
			t.Fatalf("%s: non-positive throughput", kernel)
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	if len(ExtensionIDs()) < 3 {
		t.Fatal("missing extension experiments")
	}
	for _, id := range ExtensionIDs() {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(context.Background(), tiny)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.Text == "" || len(rep.Findings) == 0 || len(rep.CSV) == 0 {
			t.Fatalf("%s: incomplete report", id)
		}
	}
	// Extensions are not in the paper registry.
	for _, id := range IDs() {
		for _, ext := range ExtensionIDs() {
			if id == ext {
				t.Fatalf("extension %s leaked into the paper registry", id)
			}
		}
	}
}

func TestAblationFindingsShowMechanisms(t *testing.T) {
	e, err := Get("abl-ablations")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "present") {
		t.Fatalf("ablations should verify mechanisms present:\n%s", rep.Text)
	}
	if strings.Contains(rep.Text, "ABSENT") {
		t.Fatalf("a load-bearing mechanism is missing:\n%s", rep.Text)
	}
}

// TestParallelMatchesSequential is the engine's determinism contract
// at the harness level: a parallel run must render byte-identical
// reports (text, CSV, findings) to the 1-worker sequential baseline
// for both a simulator-driven sparse sweep and an analytic dense one.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"fig9", "fig7"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		seqOpt, parOpt := tiny, tiny
		seqOpt.Workers = 1
		parOpt.Workers = 4
		seq, err := e.Run(context.Background(), seqOpt)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := e.Run(context.Background(), parOpt)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if seq.Text != par.Text {
			t.Errorf("%s: parallel text differs from sequential", id)
		}
		if len(seq.CSV) != len(par.CSV) {
			t.Fatalf("%s: CSV count %d vs %d", id, len(par.CSV), len(seq.CSV))
		}
		for name, lines := range seq.CSV {
			if strings.Join(par.CSV[name], "\n") != strings.Join(lines, "\n") {
				t.Errorf("%s: CSV %s differs between parallel and sequential", id, name)
			}
		}
		if strings.Join(seq.Findings, "\n") != strings.Join(par.Findings, "\n") {
			t.Errorf("%s: findings differ:\nseq: %v\npar: %v", id, seq.Findings, par.Findings)
		}
	}
}

// TestRunHonorsCancellation aborts a sparse sweep mid-flight and
// expects a prompt context.Canceled, not a completed report.
func TestRunHonorsCancellation(t *testing.T) {
	e, err := Get("fig9")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	rep, err := e.Run(ctx, tiny)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled run still produced a report")
	}
	if d := time.Since(t0); d > 30*time.Second {
		t.Fatalf("cancelled run took %s", d)
	}
}

// TestRunHonorsTimeout exercises the deadline path the opmbench
// -timeout flag uses.
func TestRunHonorsTimeout(t *testing.T) {
	e, err := Get("fig9")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := e.Run(ctx, tiny); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
