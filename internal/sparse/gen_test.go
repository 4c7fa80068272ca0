package sparse

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFamilyString(t *testing.T) {
	for f := Family(0); f < NumFamilies; f++ {
		if s := f.String(); s == "" || strings.Contains(s, "family(") {
			t.Errorf("family %d has no name", int(f))
		}
	}
	if !strings.Contains(Family(99).String(), "99") {
		t.Error("unknown family should render its number")
	}
}

func TestGeneratorsProduceValidSquareMatrices(t *testing.T) {
	gens := map[string]*CSR{
		"banded":    Banded(300, 32, 8, 1),
		"random":    RandomUniform(300, 8, 2),
		"rmat":      RMAT(256, 2000, 3),
		"blockdiag": BlockDiag(300, 10, 4),
		"poisson2d": Poisson2D(20),
		"poisson3d": Poisson3D(8),
		"tridiag":   Tridiag(300),
		"arrow":     Arrow(300, 8, 5),
	}
	for name, m := range gens {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		if m.Rows != m.Cols {
			t.Errorf("%s: not square (%dx%d)", name, m.Rows, m.Cols)
		}
		if m.NNZ() < m.Rows {
			t.Errorf("%s: too sparse (%d nnz, %d rows)", name, m.NNZ(), m.Rows)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a := RandomUniform(200, 8, 123)
	b := RandomUniform(200, 8, 123)
	if !equalCSR(a, b) {
		t.Fatal("same seed must reproduce the same matrix")
	}
	c := RandomUniform(200, 8, 124)
	if equalCSR(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestBandedRespectsBandwidth(t *testing.T) {
	m := Banded(500, 40, 10, 9)
	mt := Measure(m)
	if mt.Bandwidth > 20 {
		t.Fatalf("banded matrix bandwidth %d exceeds half-band 20", mt.Bandwidth)
	}
}

func TestPoisson2DStructure(t *testing.T) {
	k := 10
	m := Poisson2D(k)
	if m.Rows != k*k {
		t.Fatalf("rows = %d, want %d", m.Rows, k*k)
	}
	// Interior point has 5 entries; corner has 3.
	if got := m.RowNNZ(k + 1); got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	if got := m.RowNNZ(0); got != 3 {
		t.Errorf("corner row nnz = %d, want 3", got)
	}
	// Row sums: diagonal 4 minus neighbours.
	if m.At(0, 0) != 4 || m.At(0, 1) != -1 || m.At(0, k) != -1 {
		t.Error("poisson2d stencil coefficients wrong")
	}
}

func TestPoisson3DStructure(t *testing.T) {
	k := 6
	m := Poisson3D(k)
	if m.Rows != k*k*k {
		t.Fatalf("rows = %d, want %d", m.Rows, k*k*k)
	}
	center := (k/2*k+k/2)*k + k/2
	if got := m.RowNNZ(center); got != 7 {
		t.Errorf("interior row nnz = %d, want 7", got)
	}
}

func TestArrowStructure(t *testing.T) {
	m := Arrow(100, 4, 11)
	// Rows beyond the head hold width + diagonal entries.
	if got := m.RowNNZ(50); got != 5 {
		t.Errorf("arrow row nnz = %d, want 5", got)
	}
	mt := Measure(m)
	if mt.MaxRowNNZ < 90 {
		t.Errorf("arrow head rows should be dense, max row nnz = %d", mt.MaxRowNNZ)
	}
}

func TestMeasureMetrics(t *testing.T) {
	m := Tridiag(10)
	mt := Measure(m)
	if mt.Rows != 10 || mt.NNZ != 28 {
		t.Fatalf("metrics rows/nnz = %d/%d", mt.Rows, mt.NNZ)
	}
	if mt.Bandwidth != 1 {
		t.Fatalf("tridiag bandwidth = %d, want 1", mt.Bandwidth)
	}
	if mt.MaxRowNNZ != 3 {
		t.Fatalf("max row nnz = %d, want 3", mt.MaxRowNNZ)
	}
	if mt.AvgRowNNZ != 2.8 {
		t.Fatalf("avg row nnz = %v, want 2.8", mt.AvgRowNNZ)
	}
	if mt.DiagDominance != 0 { // 2 = 1+1 not strictly dominant except ends
		// ends have |2| > |-1|: 2 of 10 rows dominant
		t.Logf("diag dominance = %v", mt.DiagDominance)
	}
}

func TestCollectionProperties(t *testing.T) {
	specs := Collection()
	if len(specs) != CollectionSize {
		t.Fatalf("collection size = %d, want %d", len(specs), CollectionSize)
	}
	famSeen := map[Family]int{}
	for i, sp := range specs {
		if sp.ID != i {
			t.Fatalf("spec %d has ID %d", i, sp.ID)
		}
		if sp.PaperFootprint < minPaperFootprint || sp.PaperFootprint > maxPaperFootprint {
			t.Fatalf("spec %d footprint %d outside envelope", i, sp.PaperFootprint)
		}
		famSeen[sp.Family]++
	}
	if len(famSeen) != int(NumFamilies) {
		t.Fatalf("only %d families present", len(famSeen))
	}
}

func TestCollectionInstantiateScalesFootprint(t *testing.T) {
	specs := Collection()
	sp := specs[0]
	m64 := sp.Instantiate(64)
	m128 := sp.Instantiate(128)
	if err := m64.Validate(); err != nil {
		t.Fatal(err)
	}
	f64, f128 := m64.FootprintBytes(), m128.FootprintBytes()
	ratio := float64(f64) / float64(f128)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("scale 64 vs 128 footprint ratio = %v, want ~2", ratio)
	}
	// Footprint should be within 2x of target.
	target := sp.PaperFootprint / 64
	if f64 < target/2 || f64 > target*2 {
		t.Fatalf("instantiated footprint %d vs target %d", f64, target)
	}
}

func TestCollectionInstantiateDeterministic(t *testing.T) {
	sp := Collection()[17]
	a := sp.Instantiate(64)
	b := sp.Instantiate(64)
	if !equalCSR(a, b) {
		t.Fatal("instantiation must be deterministic")
	}
}

func TestCollectionAllFamiliesInstantiate(t *testing.T) {
	specs := Collection()
	seen := map[Family]bool{}
	for _, sp := range specs {
		if seen[sp.Family] {
			continue
		}
		seen[sp.Family] = true
		m := sp.Instantiate(256) // small for test speed
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if m.Rows != m.Cols {
			t.Fatalf("%s: not square", sp.Name)
		}
		if len(seen) == int(NumFamilies) {
			break
		}
	}
}

func TestSubsampleAndFilter(t *testing.T) {
	specs := Collection()
	sub := Subsample(specs, 8)
	if len(sub) != 121 {
		t.Fatalf("subsample len = %d, want 121", len(sub))
	}
	if Subsample(specs, 1)[5].ID != 5 {
		t.Fatal("stride 1 should return all")
	}
	filtered := FilterMaxFootprint(specs, 1<<30)
	for _, sp := range filtered {
		if sp.PaperFootprint > 1<<30 {
			t.Fatal("filter leaked a large spec")
		}
	}
	if len(filtered) == 0 || len(filtered) == len(specs) {
		t.Fatalf("filter should drop some, keep some: %d of %d", len(filtered), len(specs))
	}
}

// fuzzGenerators maps one FuzzGenerators input to a family's
// production and reference builds: n is the order (the grid side k for
// the Poisson families), p the family's shape parameter (band, row
// length, edge count, block size or arrow width) and q Banded's row
// length. Each is reduced to a small range, keeping its sign, so a
// build takes milliseconds and a negative order still reaches both
// builds, which must then both panic. A BlockDiag block below 1 has no
// reference (ref is nil): the reference never finishes a block, and
// the production build must panic instead.
func fuzzGenerators(fam Family, n, p, q int, seed uint64) (prod, ref func() *CSR) {
	n %= 400
	switch fam {
	case FamBanded:
		band, nnzPerRow := p%128, q%64
		return func() *CSR { return Banded(n, band, nnzPerRow, seed) },
			func() *CSR { return refBanded(n, band, nnzPerRow, seed) }
	case FamRandomUniform:
		nnzPerRow := p % 64
		return func() *CSR { return RandomUniform(n, nnzPerRow, seed) },
			func() *CSR { return refRandomUniform(n, nnzPerRow, seed) }
	case FamRMAT:
		nnz := p % 4096
		return func() *CSR { return RMAT(n, nnz, seed) },
			func() *CSR { return refRMAT(n, nnz, seed) }
	case FamBlockDiag:
		block := p % 64
		prod = func() *CSR { return BlockDiag(n, block, seed) }
		if block < 1 {
			return prod, nil
		}
		return prod, func() *CSR { return refBlockDiag(n, block, seed) }
	case FamPoisson2D:
		k := n % 64
		return func() *CSR { return Poisson2D(k) }, func() *CSR { return refPoisson2D(k) }
	case FamPoisson3D:
		k := n % 24
		return func() *CSR { return Poisson3D(k) }, func() *CSR { return refPoisson3D(k) }
	case FamTridiag:
		return func() *CSR { return Tridiag(n) }, func() *CSR { return refTridiag(n) }
	default:
		width := p % 512
		return func() *CSR { return Arrow(n, width, seed) },
			func() *CSR { return refArrow(n, width, seed) }
	}
}

// build returns gen's matrix, or whether it panicked.
func build(gen func() *CSR) (m *CSR, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return gen(), false
}

// panicValue runs gen under a 5 s deadline and returns what it
// panicked with, nil if it returned, and fails t if it did neither, so
// a build that loops forever fails instead of hanging the test.
func panicValue(t *testing.T, gen func() *CSR) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		gen()
	}()
	select {
	case p := <-done:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("build neither returned nor panicked within 5s")
		return nil
	}
}

// diffCSR describes the first difference between a and b, comparing
// the bits of every value, or returns "" when they are identical.
func diffCSR(a, b *CSR) string {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if !slices.Equal(a.RowPtr, b.RowPtr) {
		return fmt.Sprintf("RowPtr %v, want %v", a.RowPtr, b.RowPtr)
	}
	if !slices.Equal(a.ColIdx, b.ColIdx) {
		return fmt.Sprintf("ColIdx %v, want %v", a.ColIdx, b.ColIdx)
	}
	if len(a.Val) != len(b.Val) {
		return fmt.Sprintf("%d values, want %d", len(a.Val), len(b.Val))
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return fmt.Sprintf("Val[%d] = %v, want %v", k, a.Val[k], b.Val[k])
		}
	}
	return ""
}

// FuzzGenerators holds every generator to its reference in
// gen_ref_test.go, which builds the same matrix through a COO: for each
// input the two matrices are bit-identical, or both builds panic. The
// committed seeds cover order 1, Banded's band below its row length,
// row lengths of at most 1, a block wider than the matrix, Poisson
// grids of side 1 and of negative side, an arrow as wide as the matrix
// and of width 0, RMAT and random rows with duplicate columns (sorted
// by both the insertion and the sort.Sort path), and a negative order.
// A BlockDiag block below 1 must panic, naming the block size (seed
// blockdiag-block0).
func FuzzGenerators(f *testing.F) {
	f.Fuzz(func(t *testing.T, family uint8, n, p, q int16, seed uint64) {
		fam := Family(family % uint8(NumFamilies))
		prod, ref := fuzzGenerators(fam, int(n), int(p), int(q), seed)
		if ref == nil {
			want := fmt.Sprintf("block size %d", p%64)
			if msg, _ := panicValue(t, prod).(string); !strings.Contains(msg, want) {
				t.Fatalf("%s(n=%d, p=%d): panicked with %q, want a message naming %q", fam, n, p, msg, want)
			}
			return
		}
		got, gotPanic := build(prod)
		want, wantPanic := build(ref)
		switch {
		case gotPanic != wantPanic:
			t.Fatalf("%s(n=%d, p=%d, q=%d, seed=%d): panicked %v, reference panicked %v",
				fam, n, p, q, seed, gotPanic, wantPanic)
		case !gotPanic:
			if d := diffCSR(got, want); d != "" {
				t.Fatalf("%s(n=%d, p=%d, q=%d, seed=%d): %s", fam, n, p, q, seed, d)
			}
		}
	})
}

// TestGeneratorsAllocate pins each generator's allocations. A
// row-built family makes its builder, the three CSR arrays and the CSR
// (five), plus its random source where it draws values; Arrow makes the
// same less the builder. RMAT makes its source, the COO's three arrays,
// ToCSR's CSR, three arrays and row cursor, and the one sort view its
// long rows share (ten). No array grows and nothing is allocated per
// row: the Banded, random, RMAT and BlockDiag rows here are longer
// than the insertion-sort cutoff, so a sort view made per row would
// show. The collector is off while counting, as a collection adds the
// runtime's own allocations to the count.
func TestGeneratorsAllocate(t *testing.T) {
	cases := []struct {
		name string
		gen  func() *CSR
		want float64
	}{
		{"banded", func() *CSR { return Banded(500, 96, 40, 1) }, 6},
		{"random", func() *CSR { return RandomUniform(500, 40, 2) }, 6},
		{"rmat", func() *CSR { return RMAT(512, 8000, 3) }, 10},
		{"blockdiag", func() *CSR { return BlockDiag(500, 48, 4) }, 6},
		{"poisson2d", func() *CSR { return Poisson2D(24) }, 5},
		{"poisson3d", func() *CSR { return Poisson3D(8) }, 5},
		{"tridiag", func() *CSR { return Tridiag(500) }, 5},
		{"arrow", func() *CSR { return Arrow(500, 8, 5) }, 5},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		if got := testing.AllocsPerRun(5, func() { c.gen() }); got != c.want {
			t.Errorf("%s: %v allocations per build, want %v", c.name, got, c.want)
		}
	}
}
