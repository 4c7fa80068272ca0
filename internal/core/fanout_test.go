package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/resilience"
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

// TestEstimateMachinesStopsAtFailingMachine: when the result fault
// point fires on the second machine's key only, EstimateMachines
// returns the first machine's result and the second's quarantine, so
// ms[len(results)] names the failing machine.
func TestEstimateMachinesStopsAtFailingMachine(t *testing.T) {
	brd := platform.Broadwell()
	ms, err := Machines(brd)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	inj := faultinject.New(7)
	if err := inj.Add(faultinject.PointResult, faultinject.KindCorrupt, 0.5, 0, 0); err != nil {
		t.Fatal(err)
	}
	prefix := ""
	for i := 0; prefix == ""; i++ {
		p := fmt.Sprintf("k%d|", i)
		if !inj.Result(ctx, p+ms[0].Label()) && inj.Result(ctx, p+ms[1].Label()) {
			prefix = p
		}
	}
	wl := trace.NewStream(brd.ScaledBytes(64 << 20))
	rs, err := Exact.EstimateMachines(ctx, &sweep.Engine{Inject: inj}, sweep.NewWorker(0), ms, wl,
		func(m *Machine) string { return prefix + m.Label() })
	var q *resilience.QuarantineError
	if !errors.As(err, &q) || q.Key != prefix+ms[1].Label() {
		t.Fatalf("want the quarantine of %s, got %v", ms[1].Label(), err)
	}
	if len(rs) != 1 || rs[0] != ms[0].MustRun(wl) {
		t.Fatalf("want the first machine's result alone, got %+v", rs)
	}
}
