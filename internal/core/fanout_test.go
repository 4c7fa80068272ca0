package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// cellKey is the per-machine key of the test cells.
func cellKey(m *Machine) string { return "cell|" + m.Label() }

// levelsOf snapshots the pooled simulators' statistics on w.
func levelsOf(t *testing.T, w *sweep.Worker, ms []*Machine) [][]memsim.LevelStats {
	t.Helper()
	var out [][]memsim.LevelStats
	for _, m := range ms {
		sim, err := m.PooledSim(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sim.LevelStats())
	}
	return out
}

// TestEstimateMachinesMatchesLoneRuns: one EstimateMachines call over
// KNL's four modes returns each mode's Machine.Run result, leaves each
// machine's pooled simulator with a lone run's counts, and records one
// memsim/fanout/shared per mode; a one-machine EstimateCell records
// memsim/fanout/solo.
func TestEstimateMachinesMatchesLoneRuns(t *testing.T) {
	knl := platform.KNL()
	ms, err := Machines(knl)
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.NewStencil(knl.ScaledBytes(64<<20), knl.Scale)
	reg := obs.NewRegistry()
	eng := &sweep.Engine{Obs: reg}
	w := sweep.NewWorker(0)
	rs, err := Exact.EstimateMachines(context.Background(), eng, w, ms, wl, cellKey)
	if err != nil {
		t.Fatal(err)
	}
	got := levelsOf(t, w, ms)
	for i, m := range ms {
		sim, err := memsim.NewSim(m.Config())
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.RunOn(sim, wl)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != want {
			t.Errorf("%s: fan-out result %+v, lone %+v", m.Label(), rs[i], want)
		}
		if !reflect.DeepEqual(got[i], sim.LevelStats()) {
			t.Errorf("%s: pooled sim levels %+v, lone %+v", m.Label(), got[i], sim.LevelStats())
		}
	}
	if _, err := Exact.EstimateCell(context.Background(), eng, w, ms[0], wl, "solo"); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	if c["memsim/fanout/shared"] != int64(len(ms)) || c["memsim/fanout/solo"] != 1 {
		t.Errorf("fanout counters shared=%d solo=%d, want %d and 1",
			c["memsim/fanout/shared"], c["memsim/fanout/solo"], len(ms))
	}
}

// panicking is a workload whose generator runs part of a pass and then
// panics in Buffer.check, as a generator bug would.
type panicking struct{ trace.Workload }

func (p panicking) Simulate(sim *memsim.Sim) {
	b := sim.Alloc("a", 1<<20)
	b.StoreLines(0, 1<<20)
	b.Load(2<<20, 8)
}

// TestEstimateMachinesPanicLeavesNothingAttached: a generator panic in
// the middle of a fanned-out cell leaves no memory side attached to the
// worker's front simulator, and retrying the cell on the same worker
// gives the bytes and LevelStats of the cell on a fresh worker.
func TestEstimateMachinesPanicLeavesNothingAttached(t *testing.T) {
	knl := platform.KNL()
	ms, err := Machines(knl)
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.NewStream(knl.ScaledBytes(256 << 20))
	ctx := context.Background()
	fresh := sweep.NewWorker(0)
	want, err := Exact.EstimateMachines(ctx, nil, fresh, ms, wl, cellKey)
	if err != nil {
		t.Fatal(err)
	}
	w := sweep.NewWorker(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the generator did not panic")
			}
		}()
		_, _ = Exact.EstimateMachines(ctx, nil, w, ms, panicking{wl}, cellKey)
	}()
	// Traffic on the front alone must reach no other simulator.
	before := levelsOf(t, w, ms)
	front, err := ms[0].PooledSim(w)
	if err != nil {
		t.Fatal(err)
	}
	front.Alloc("probe", 64<<10).StoreLines(0, 64<<10)
	after := levelsOf(t, w, ms)
	if !reflect.DeepEqual(before[1:], after[1:]) {
		t.Fatal("a memory side stayed attached to the front after the panic")
	}
	got, err := Exact.EstimateMachines(ctx, nil, w, ms, wl, cellKey)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("retried cell:\n%s\nfresh worker:\n%s", gotJSON, wantJSON)
	}
	if g, f := levelsOf(t, w, ms), levelsOf(t, fresh, ms); !reflect.DeepEqual(g, f) {
		t.Errorf("retried cell levels %+v, fresh worker %+v", g, f)
	}
}

// nanFlops is a workload whose flop count is NaN, so every machine's
// evaluated result fails the gate's finiteness check.
type nanFlops struct{ trace.Workload }

func (nanFlops) Flops() float64 { return math.NaN() }

// TestEstimateMachinesStopsAtFailingMachine: a result that fails the
// gate on the first machine ends the call there. The error names that
// machine's key, no result comes back, gate/quarantined reads 1, and
// the machine's pooled simulator is evicted while the next machine's
// stays pooled.
func TestEstimateMachinesStopsAtFailingMachine(t *testing.T) {
	brd := platform.Broadwell()
	ms, err := Machines(brd)
	if err != nil {
		t.Fatal(err)
	}
	w := sweep.NewWorker(0)
	pooled := make([]*memsim.Sim, len(ms))
	for i, m := range ms {
		if pooled[i], err = m.PooledSim(w); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	wl := nanFlops{trace.NewStream(brd.ScaledBytes(64 << 20))}
	rs, err := Exact.EstimateMachines(context.Background(), &sweep.Engine{Obs: reg}, w, ms, wl, cellKey)
	if err == nil || !strings.Contains(err.Error(), cellKey(ms[0])) {
		t.Fatalf("want the quarantine of %s, got %v", cellKey(ms[0]), err)
	}
	if len(rs) != 0 {
		t.Fatalf("want no result, got %+v", rs)
	}
	if got := reg.Counter("gate/quarantined").Value(); got != 1 {
		t.Fatalf("gate/quarantined = %d, want 1", got)
	}
	for i, m := range ms[:2] {
		sim, err := m.PooledSim(w)
		if err != nil {
			t.Fatal(err)
		}
		if evicted := sim != pooled[i]; evicted != (i == 0) {
			t.Fatalf("%s: pooled simulator evicted = %v, want %v", m.Label(), evicted, i == 0)
		}
	}
}

// TestGateResultQuarantinesNaN: a NaN-GFlops result fails the gate with
// an error naming its key and counts one gate/quarantined; a valid
// result passes and counts nothing, and a nil registry is allowed.
func TestGateResultQuarantinesNaN(t *testing.T) {
	m, err := NewMachine(platform.Broadwell(), memsim.ModeDDR)
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.RunDense(trace.DenseGEMM, 1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reg := obs.NewRegistry()
	if err := GateResult(ctx, reg, "good", &good); err != nil {
		t.Fatalf("valid result quarantined: %v", err)
	}
	bad := good
	bad.GFlops = math.NaN()
	err = GateResult(ctx, reg, "dense|nan", &bad)
	if err == nil || !strings.Contains(err.Error(), "dense|nan") {
		t.Fatalf("want a quarantine naming dense|nan, got %v", err)
	}
	if got := reg.Counter("gate/quarantined").Value(); got != 1 {
		t.Fatalf("gate/quarantined = %d, want 1", got)
	}
	if err := GateResult(ctx, nil, "dense|nan", &bad); err == nil {
		t.Fatal("nil registry: want the quarantine")
	}
}
