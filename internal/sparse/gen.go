package sparse

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Family identifies a synthetic matrix structure family. The families
// span the locality spectrum of the UF collection: from perfectly
// banded (circuit/PDE-like) through block structures to scale-free
// graphs with power-law rows (web/social-network-like).
type Family int

// Matrix structure families.
const (
	FamBanded Family = iota
	FamRandomUniform
	FamRMAT
	FamBlockDiag
	FamPoisson2D
	FamPoisson3D
	FamTridiag
	FamArrow
	NumFamilies
)

// String returns the family name.
func (f Family) String() string {
	switch f {
	case FamBanded:
		return "banded"
	case FamRandomUniform:
		return "random"
	case FamRMAT:
		return "rmat"
	case FamBlockDiag:
		return "blockdiag"
	case FamPoisson2D:
		return "poisson2d"
	case FamPoisson3D:
		return "poisson3d"
	case FamTridiag:
		return "tridiag"
	case FamArrow:
		return "arrow"
	}
	return fmt.Sprintf("family(%d)", int(f))
}

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Banded generates an n×n matrix with entries within |i-j| <= band/2,
// averaging nnzPerRow entries per row. Excellent spatial locality.
func Banded(n, band, nnzPerRow int, seed uint64) *CSR {
	if band < nnzPerRow {
		band = nnzPerRow
	}
	rng := newRNG(seed)
	b := newRowBuilder(n, n*max(nnzPerRow, 1))
	half := band / 2
	for i := 0; i < n; i++ {
		b.add(i, diagVal(rng))
		for k := 1; k < nnzPerRow; k++ {
			off := rng.IntN(2*half+1) - half
			j := i + off
			if j < 0 || j >= n || j == i {
				continue
			}
			b.add(j, offVal(rng))
		}
		b.endRow()
	}
	return b.csr()
}

// RandomUniform generates an n×n matrix with nnzPerRow uniformly
// random columns per row plus the diagonal. Worst-case gather
// locality for SpMV's x vector.
func RandomUniform(n, nnzPerRow int, seed uint64) *CSR {
	rng := newRNG(seed)
	b := newRowBuilder(n, n*max(nnzPerRow, 1))
	for i := 0; i < n; i++ {
		b.add(i, diagVal(rng))
		for k := 1; k < nnzPerRow; k++ {
			b.add(rng.IntN(n), offVal(rng))
		}
		b.endRow()
	}
	return b.csr()
}

// RMAT generates a recursive-matrix (Kronecker-like) power-law graph
// with roughly nnz entries plus a full diagonal: a stand-in for the
// scale-free web/social matrices of the UF collection. Its edges
// arrive in random row order, so it alone goes through a COO.
func RMAT(n, nnz int, seed uint64) *CSR {
	rng := newRNG(seed)
	levels := 0
	for 1<<levels < n {
		levels++
	}
	size := 1 << levels
	const a, b, c = 0.57, 0.19, 0.19 // standard Graph500 parameters
	coo := newCOO(n, n, n+max(nnz, 0))
	for i := 0; i < n; i++ {
		coo.Add(i, i, diagVal(rng))
	}
	for e := 0; e < nnz; e++ {
		r, cIdx := 0, 0
		for bit := size / 2; bit >= 1; bit /= 2 {
			// One draw picks the quadrant: [0,a) top-left, [a,a+b)
			// top-right, [a+b,a+b+c) bottom-left, the rest
			// bottom-right. So the row bit is p >= a+b, and as the
			// thresholds are nested, the column bit is the parity of
			// the number p reaches. Both are picked without a
			// branch: a draw's quadrant is unpredictable.
			p := rng.Float64()
			ab := b2i(p >= a+b)
			r += bit & -ab
			cIdx += bit & -(b2i(p >= a) ^ ab ^ b2i(p >= a+b+c))
		}
		if r < n && cIdx < n && r != cIdx {
			coo.Add(r, cIdx, offVal(rng))
		}
	}
	return mustCSR(coo)
}

// b2i returns 1 for true and 0 for false; the compiler emits it
// without a branch.
func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// BlockDiag generates an n×n matrix of dense blockSize×blockSize
// diagonal blocks: FEM-like structure with strong reuse inside blocks.
// It panics for a block size below 1, which would never finish a block.
func BlockDiag(n, blockSize int, seed uint64) *CSR {
	if blockSize < 1 {
		panic(fmt.Sprintf("sparse: BlockDiag block size %d, want at least 1", blockSize))
	}
	rng := newRNG(seed)
	b := newRowBuilder(n, n*min(blockSize, n))
	for b0 := 0; b0 < n; b0 += blockSize {
		end := b0 + blockSize
		if end > n {
			end = n
		}
		for i := b0; i < end; i++ {
			for j := b0; j < end; j++ {
				if i == j {
					b.add(j, diagVal(rng))
				} else {
					b.add(j, offVal(rng))
				}
			}
			b.endRow()
		}
	}
	return b.csr()
}

// Poisson2D generates the 5-point finite-difference Laplacian on a
// k×k grid (n = k²) — the classic PDE matrix.
func Poisson2D(k int) *CSR {
	n := k * k
	b := newRowBuilder(n, 5*n)
	idx := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			i := idx(x, y)
			b.add(i, 4)
			if x > 0 {
				b.add(idx(x-1, y), -1)
			}
			if x < k-1 {
				b.add(idx(x+1, y), -1)
			}
			if y > 0 {
				b.add(idx(x, y-1), -1)
			}
			if y < k-1 {
				b.add(idx(x, y+1), -1)
			}
			b.endRow()
		}
	}
	return b.csr()
}

// Poisson3D generates the 7-point Laplacian on a k×k×k grid (n = k³).
func Poisson3D(k int) *CSR {
	n := k * k * k
	b := newRowBuilder(n, 7*n)
	idx := func(x, y, z int) int { return (z*k+y)*k + x }
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				i := idx(x, y, z)
				b.add(i, 6)
				if x > 0 {
					b.add(idx(x-1, y, z), -1)
				}
				if x < k-1 {
					b.add(idx(x+1, y, z), -1)
				}
				if y > 0 {
					b.add(idx(x, y-1, z), -1)
				}
				if y < k-1 {
					b.add(idx(x, y+1, z), -1)
				}
				if z > 0 {
					b.add(idx(x, y, z-1), -1)
				}
				if z < k-1 {
					b.add(idx(x, y, z+1), -1)
				}
				b.endRow()
			}
		}
	}
	return b.csr()
}

// Tridiag generates the n×n tridiagonal [-1, 2, -1] matrix.
func Tridiag(n int) *CSR {
	b := newRowBuilder(n, 3*n)
	for i := 0; i < n; i++ {
		b.add(i, 2)
		if i > 0 {
			b.add(i-1, -1)
		}
		if i < n-1 {
			b.add(i+1, -1)
		}
		b.endRow()
	}
	return b.csr()
}

// Arrow generates an arrowhead matrix: dense first `width` rows and
// columns plus a diagonal — extreme row-length skew with a hot
// corner, stressing load balance and caching of the shared rows.
//
// Its shape is known in closed form. Row i < width holds its diagonal
// and columns width..n-1, 1 + n − width entries; every other row holds
// columns 0..width-1 and its diagonal, width + 1 entries. Values are
// drawn row by row, diagonal i and then, for i ≥ width, (i, j) and
// (j, i) for each j < width, and each goes straight to its final slot.
func Arrow(n, width int, seed uint64) *CSR {
	rng := newRNG(seed)
	if width >= n {
		width = n / 2
	}
	width = max(width, 0)
	checkOrder(n)
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		if i < width {
			m.RowPtr[i+1] = m.RowPtr[i] + int64(1+n-width)
		} else {
			m.RowPtr[i+1] = m.RowPtr[i] + int64(width+1)
		}
	}
	m.ColIdx = make([]int32, m.RowPtr[n])
	m.Val = make([]float64, m.RowPtr[n])
	set := func(p int64, j int, v float64) {
		m.ColIdx[p] = int32(j)
		m.Val[p] = v
	}
	for i := 0; i < n; i++ {
		if i < width {
			set(m.RowPtr[i], i, diagVal(rng))
			continue
		}
		set(m.RowPtr[i]+int64(width), i, diagVal(rng))
		for j := 0; j < width; j++ {
			set(m.RowPtr[i]+int64(j), j, offVal(rng))
			set(m.RowPtr[j]+int64(1+i-width), i, offVal(rng))
		}
	}
	return m
}

// checkOrder panics on a negative matrix order: generators take one
// only from a caller's bug, since Spec.Checked and matgen validate
// their inputs.
func checkOrder(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", n, n))
	}
}

// rowBuilder assembles an n×n CSR straight into its final arrays, one
// row at a time and in row order: a generator adds a row's entries in
// the order it draws them, then ends the row, which sorts it and sums
// its duplicate columns exactly as COO.ToCSR would the same entries.
// The capacity it is made with bounds the entries added before any
// merge, so the arrays are allocated once.
type rowBuilder struct {
	rowPtr []int64
	colIdx []int32
	val    []float64
	rows   int      // rows ended so far
	pv     pairView // sortRow's view of a long row
}

func newRowBuilder(n, capacity int) *rowBuilder {
	checkOrder(n)
	capacity = max(capacity, 0)
	return &rowBuilder{
		rowPtr: make([]int64, n+1),
		colIdx: make([]int32, 0, capacity),
		val:    make([]float64, 0, capacity),
	}
}

// add appends entry (row, j) = v to the row being built.
func (b *rowBuilder) add(j int, v float64) {
	b.colIdx = append(b.colIdx, int32(j))
	b.val = append(b.val, v)
}

// endRow sorts the row being built and sums its duplicate columns, in
// place, and starts the next row.
func (b *rowBuilder) endRow() {
	lo, hi := b.rowPtr[b.rows], int64(len(b.val))
	sortRow(&b.pv, b.colIdx[lo:hi], b.val[lo:hi])
	end := mergeRow(b.colIdx, b.val, lo, hi, lo)
	b.colIdx, b.val = b.colIdx[:end], b.val[:end]
	b.rows++
	b.rowPtr[b.rows] = end
}

// csr returns the matrix built. Every row must have been ended, unless
// none was: a Poisson grid of negative side leaves its k² rows empty.
func (b *rowBuilder) csr() *CSR {
	n := len(b.rowPtr) - 1
	return &CSR{Rows: n, Cols: n, RowPtr: b.rowPtr, ColIdx: b.colIdx, Val: b.val}
}

// diagVal returns a diagonally-dominant positive value so lower
// triangles extracted from generated matrices are well conditioned.
func diagVal(rng *rand.Rand) float64 { return 16 + rng.Float64() }

func offVal(rng *rand.Rand) float64 { return rng.Float64() - 0.5 }

func mustCSR(coo *COO) *CSR {
	m, err := coo.ToCSR()
	if err != nil {
		panic(err) // generators construct in-bounds entries by design
	}
	return m
}

// Metrics summarizes the structural features the paper's heat maps
// (Figs 9–11 bottom, 20–22) bin matrices by.
type Metrics struct {
	Rows           int
	NNZ            int
	AvgRowNNZ      float64
	MaxRowNNZ      int
	Bandwidth      int     // max |i - j| over entries
	DiagDominance  float64 // fraction of rows with |diag| > sum|offdiag|
	FootprintBytes int64
}

// Measure computes structure metrics for a matrix.
func Measure(m *CSR) Metrics {
	mt := Metrics{Rows: m.Rows, NNZ: m.NNZ(), FootprintBytes: m.FootprintBytes()}
	if m.Rows > 0 {
		mt.AvgRowNNZ = float64(m.NNZ()) / float64(m.Rows)
	}
	dom := 0
	for i := 0; i < m.Rows; i++ {
		if n := m.RowNNZ(i); n > mt.MaxRowNNZ {
			mt.MaxRowNNZ = n
		}
		var diag, off float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := int(m.ColIdx[p])
			if d := j - i; d > mt.Bandwidth {
				mt.Bandwidth = d
			} else if -d > mt.Bandwidth {
				mt.Bandwidth = -d
			}
			if j == i {
				diag = math.Abs(m.Val[p])
			} else {
				off += math.Abs(m.Val[p])
			}
		}
		if diag > off {
			dom++
		}
	}
	if m.Rows > 0 {
		mt.DiagDominance = float64(dom) / float64(m.Rows)
	}
	return mt
}
