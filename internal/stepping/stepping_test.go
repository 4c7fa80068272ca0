package stepping

import (
	"testing"
)

// testLevels is a Broadwell-like hierarchy: L3 + eDRAM + DDR.
func testLevels(withEDRAM bool) []Level {
	ls := []Level{
		{Name: "L3", Cap: 6 << 20, BWGBs: 150, LatNS: 12},
	}
	if withEDRAM {
		ls = append(ls, Level{Name: "eDRAM", Cap: 128 << 20, BWGBs: 48, LatNS: 42, OPM: true})
	}
	return append(ls, Level{Name: "DDR", Cap: 0, BWGBs: 20, LatNS: 85})
}

func streamKernel() Kernel {
	return Kernel{Name: "Stream", AI: 0.0625, PeakGFlops: 200, MLP: 64, RampFactor: 6}
}

func TestModelValidation(t *testing.T) {
	k := streamKernel()
	if _, err := Model("x", testLevels(true)[:1], k, 1, 2, 3); err == nil {
		t.Error("single level accepted")
	}
	bad := testLevels(true)
	bad[len(bad)-1].Cap = 1 << 30 // memory must be unbounded
	if _, err := Model("x", bad, k, 1, 2, 3); err == nil {
		t.Error("bounded memory accepted")
	}
	if _, err := Model("x", testLevels(true), k, 0, 2, 3); err == nil {
		t.Error("zero minFP accepted")
	}
	if _, err := Model("x", testLevels(true), k, 4, 2, 3); err == nil {
		t.Error("inverted sweep accepted")
	}
	if _, err := Model("x", testLevels(true), k, 1, 2, 1); err == nil {
		t.Error("single point accepted")
	}
}

func TestSteppingCurveShape(t *testing.T) {
	k := streamKernel()
	with := MustModel("edram", testLevels(true), k, 1<<20, 1<<31, 120)
	without := MustModel("ddr", testLevels(false), k, 1<<20, 1<<31, 120)

	at := func(c Curve, fp int64) Point {
		best := c.Points[0]
		for _, p := range c.Points {
			if abs64(p.Footprint-fp) < abs64(best.Footprint-fp) {
				best = p
			}
		}
		return best
	}

	// In-cache region: both equal, served by L3 at L3 bandwidth.
	inL3 := at(without, 4<<20)
	if inL3.Serving != "L3" || inL3.GBs < 100 {
		t.Fatalf("in-L3 point wrong: %+v", inL3)
	}
	// eDRAM effective region: with > without.
	wIn, woIn := at(with, 64<<20), at(without, 64<<20)
	if wIn.GFlops <= woIn.GFlops {
		t.Fatalf("eDRAM region not effective: %v vs %v", wIn.GFlops, woIn.GFlops)
	}
	// Far plateau: both converge near DDR bandwidth.
	wFar, woFar := at(with, 1<<31), at(without, 1<<31)
	ratio := wFar.GFlops / woFar.GFlops
	if ratio < 0.95 || ratio > 1.45 {
		t.Fatalf("plateaus diverge: ratio %v", ratio)
	}
	// Valley: past L3 (hits gone, MLP not yet ramped), throughput dips
	// below the far plateau.
	valley := at(without, 13<<20)
	if valley.GFlops >= woFar.GFlops {
		t.Fatalf("no cache valley: valley %v >= plateau %v", valley.GFlops, woFar.GFlops)
	}
}

func TestComputeCeilingCaps(t *testing.T) {
	k := streamKernel()
	k.AI = 1000 // compute bound everywhere
	c := MustModel("x", testLevels(true), k, 1<<20, 1<<30, 20)
	for _, p := range c.Points {
		if p.GFlops != k.PeakGFlops {
			t.Fatalf("compute-bound point below peak: %+v", p)
		}
	}
}

func TestScaleCapacityExtendsPeak(t *testing.T) {
	// Figure 30(A): doubling OPM capacity extends the cache peak to
	// the right: at a footprint between C and 2C, the scaled hierarchy
	// wins.
	k := streamKernel()
	base := MustModel("base", testLevels(true), k, 160<<20, 200<<20, 10)
	big := MustModel("big", ScaleCapacity(testLevels(true), "eDRAM", 2), k, 160<<20, 200<<20, 10)
	for i := range base.Points {
		if big.Points[i].GFlops < base.Points[i].GFlops {
			t.Fatalf("larger OPM slower at %d", base.Points[i].Footprint)
		}
	}
	if big.Points[5].GFlops <= base.Points[5].GFlops {
		t.Fatal("larger OPM should win between C and 2C")
	}
}

func TestScaleBandwidthAmplifiesPeak(t *testing.T) {
	// Figure 30(B): doubling OPM bandwidth amplifies the peak inside
	// the effective region.
	k := streamKernel()
	base := MustModel("base", testLevels(true), k, 32<<20, 96<<20, 8)
	fast := MustModel("fast", ScaleBandwidth(testLevels(true), "eDRAM", 2), k, 32<<20, 96<<20, 8)
	improved := false
	for i := range base.Points {
		if fast.Points[i].GFlops > base.Points[i].GFlops*1.3 {
			improved = true
		}
		if fast.Points[i].GFlops < base.Points[i].GFlops-1e-9 {
			t.Fatal("faster OPM slower")
		}
	}
	if !improved {
		t.Fatal("bandwidth scaling had no effect")
	}
}

func TestEffectiveRegion(t *testing.T) {
	k := streamKernel()
	with := MustModel("edram", testLevels(true), k, 1<<20, 1<<31, 150)
	without := MustModel("ddr", testLevels(false), k, 1<<20, 1<<31, 150)
	lo, hi, ok := EffectiveRegion(with, without, 1.05)
	if !ok {
		t.Fatal("no effective region found")
	}
	// PER should bracket the eDRAM-but-not-L3 capacity range.
	if lo > 64<<20 || hi < 128<<20 {
		t.Fatalf("PER [%d, %d] does not cover the eDRAM region", lo, hi)
	}
	// EER (higher threshold per Eq. 1) is no wider than PER.
	elo, ehi, eok := EffectiveRegion(with, without, 1.5)
	if eok && (elo < lo || ehi > hi) {
		t.Fatalf("EER [%d,%d] wider than PER [%d,%d]", elo, ehi, lo, hi)
	}
	// Mismatched grids are rejected.
	short := Curve{Points: with.Points[:3]}
	if _, _, ok := EffectiveRegion(short, without, 1); ok {
		t.Fatal("mismatched grids accepted")
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// MustModel is Model that panics on error, for tests.
func MustModel(name string, levels []Level, k Kernel, minFP, maxFP int64, points int) Curve {
	c, err := Model(name, levels, k, minFP, maxFP, points)
	if err != nil {
		panic(err)
	}
	return c
}
