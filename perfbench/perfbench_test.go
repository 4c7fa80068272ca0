package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinyRun runs one workload at test size for a moment.
func tinyRun(t *testing.T, workload string, seed uint64, traced bool, reference string) *report {
	t.Helper()
	rep, err := run(context.Background(), options{
		workload:  workload,
		seed:      seed,
		seconds:   0.01,
		trace:     traced,
		out:       t.TempDir(),
		tiny:      true,
		reference: reference,
	})
	if err != nil {
		t.Fatalf("%s (seed %d, traced %v): %v", workload, seed, traced, err)
	}
	return rep
}

// declared returns the metric units BENCHMARK.json names.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ms []m) map[string]string {
		out := map[string]string{}
		for _, x := range ms {
			out[x.Name] = x.Unit
		}
		return out
	}
	return units(spec.EndToEnd), units(spec.PerLayer)
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, w, defaultSeed, traced, "")
			want := e2e
			if traced {
				want = layers
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s has unit %q, want %q", w, traced, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w, traced, name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, got.Value)
				}
			}
		}
	}
}

// TestSeedRepeatsCounts: one seed gives the same output digest and the
// same exact cache counts, traced or not.
func TestSeedRepeatsCounts(t *testing.T) {
	for _, w := range workloadNames() {
		a := tinyRun(t, w, 7, false, "")
		b := tinyRun(t, w, 7, true, "")
		if a.digest != b.digest {
			t.Errorf("%s: digest %s then %s for one seed", w, a.digest, b.digest)
		}
		if !reflect.DeepEqual(a.counts, b.counts) {
			t.Errorf("%s: cache counts differ between runs of one seed:\n%v\n%v", w, a.counts, b.counts)
		}
	}
}

func TestSeedsGenerateDifferentInputs(t *testing.T) {
	for _, w := range workloadNames() {
		if a, b := tinyRun(t, w, 1, false, ""), tinyRun(t, w, 2, false, ""); a.digest == b.digest {
			t.Errorf("%s: seeds 1 and 2 produced the same outputs", w)
		}
	}
}

// TestServeSourcesOnePerCell: a cold serve-mixed pass computes every
// cell once, then answers it once from the hot set and once from the
// store after the restart.
func TestServeSourcesOnePerCell(t *testing.T) {
	r, err := newServeMixed(defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.pass(context.Background(), &env{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(r.(*serveMixed).cells)
	per := map[string]int{}
	for _, a := range p.answers {
		per[a.source]++
	}
	for _, src := range []string{"computed", "hot", "store"} {
		if per[src] != cells {
			t.Errorf("%d %s answers for %d cells (all sources: %v)", per[src], src, cells, per)
		}
	}
}

func TestTamperedReferenceCountsAsFailure(t *testing.T) {
	rep := tinyRun(t, "dense-grid", defaultSeed, false, "not-the-digest")
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("a wrong reference digest went unnoticed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

// TestReferenceDigestsRecorded: every workload has a recorded digest
// for the default seed.
func TestReferenceDigestsRecorded(t *testing.T) {
	var refs map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		if len(refs[w]) != 64 {
			t.Errorf("reference.json has no digest for %s", w)
		}
	}
}

// TestTimingsScaleWithHostSlowdown: the meter integrates an interval
// over the sampled slowdown, so a pass measured while the host ran at
// twice sliceRef reports half its wall time and cold latency, and twice
// its access rate; counts are not scaled.
func TestTimingsScaleWithHostSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	meterAt := func(slow ...float64) *meter {
		m := &meter{}
		for i, s := range slow {
			m.samples = append(m.samples, hostSample{t0.Add(time.Duration(i) * time.Second), s})
		}
		return m
	}
	for _, c := range []struct {
		name  string
		m     *meter
		start time.Time
		want  time.Duration
	}{
		{"no meter", nil, t0, time.Second},
		{"no samples", meterAt(), t0, time.Second},
		{"steady 2x", meterAt(2, 2), t0, 500 * time.Millisecond},
		{"1x to 2x", meterAt(1, 2), t0, 750 * time.Millisecond},
		{"held before the first sample", meterAt(2, 1), t0.Add(-time.Second), 500 * time.Millisecond},
		{"held after the last sample", meterAt(1, 2), t0.Add(time.Second), 500 * time.Millisecond},
		{"a sample inside", meterAt(1, 2, 1), t0.Add(500 * time.Millisecond), 625 * time.Millisecond},
	} {
		if got := c.m.scaled(c.start, time.Second, 1); math.Abs(float64(got-c.want)) > 1 {
			t.Errorf("%s: 1 s scales to %v, want %v", c.name, got, c.want)
		}
	}
	if got := meterAt(4, 4).scaled(t0, time.Second, 0.5); math.Abs(float64(got-500*time.Millisecond)) > 1 {
		t.Errorf("beta 0.5 at 4x: 1 s scales to %v, want 500ms", got)
	}

	pass := func(slow float64) *passOut {
		m := meterAt(slow, slow)
		p := &passOut{wall: 2e9, alloc: 5e6, lines: 1000,
			answers: []answer{{start: t0, lat: 4000, source: "computed"}}}
		p.scaledWall = m.scaled(t0, p.wall, 1)
		p.answers[0].lat = m.scaled(t0, p.answers[0].lat, 1)
		return p
	}
	at1 := endToEnd([]float64{1}, []*passOut{pass(1)})
	at2 := endToEnd([]float64{1}, []*passOut{pass(2)})
	for name, want := range map[string]float64{"wall_s": 0.5, "accesses_per_s": 2, "cold_p50_us": 0.5, "alloc_mb": 1} {
		if got := at2[name].Value / at1[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s at 2x slowdown / at 1x = %g, want %g", name, got, want)
		}
	}
}
