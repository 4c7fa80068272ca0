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
	coo := newCOO(n, n, n*max(nnzPerRow, 1))
	half := band / 2
	for i := 0; i < n; i++ {
		coo.Add(i, i, diagVal(rng))
		for k := 1; k < nnzPerRow; k++ {
			off := rng.IntN(2*half+1) - half
			j := i + off
			if j < 0 || j >= n || j == i {
				continue
			}
			coo.Add(i, j, offVal(rng))
		}
	}
	return mustCSR(coo)
}

// RandomUniform generates an n×n matrix with nnzPerRow uniformly
// random columns per row plus the diagonal. Worst-case gather
// locality for SpMV's x vector.
func RandomUniform(n, nnzPerRow int, seed uint64) *CSR {
	rng := newRNG(seed)
	coo := newCOO(n, n, n*max(nnzPerRow, 1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, diagVal(rng))
		for k := 1; k < nnzPerRow; k++ {
			coo.Add(i, rng.IntN(n), offVal(rng))
		}
	}
	return mustCSR(coo)
}

// RMAT generates a recursive-matrix (Kronecker-like) power-law graph
// with roughly nnz entries plus a full diagonal: a stand-in for the
// scale-free web/social matrices of the UF collection.
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
			p := rng.Float64()
			switch {
			case p < a:
			case p < a+b:
				cIdx += bit
			case p < a+b+c:
				r += bit
			default:
				r += bit
				cIdx += bit
			}
		}
		if r < n && cIdx < n && r != cIdx {
			coo.Add(r, cIdx, offVal(rng))
		}
	}
	return mustCSR(coo)
}

// BlockDiag generates an n×n matrix of dense blockSize×blockSize
// diagonal blocks: FEM-like structure with strong reuse inside blocks.
func BlockDiag(n, blockSize int, seed uint64) *CSR {
	rng := newRNG(seed)
	coo := newCOO(n, n, n*min(blockSize, n))
	for b0 := 0; b0 < n; b0 += blockSize {
		end := b0 + blockSize
		if end > n {
			end = n
		}
		for i := b0; i < end; i++ {
			for j := b0; j < end; j++ {
				if i == j {
					coo.Add(i, j, diagVal(rng))
				} else {
					coo.Add(i, j, offVal(rng))
				}
			}
		}
	}
	return mustCSR(coo)
}

// Poisson2D generates the 5-point finite-difference Laplacian on a
// k×k grid (n = k²) — the classic PDE matrix.
func Poisson2D(k int) *CSR {
	n := k * k
	coo := newCOO(n, n, 5*n)
	idx := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			i := idx(x, y)
			coo.Add(i, i, 4)
			if x > 0 {
				coo.Add(i, idx(x-1, y), -1)
			}
			if x < k-1 {
				coo.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				coo.Add(i, idx(x, y-1), -1)
			}
			if y < k-1 {
				coo.Add(i, idx(x, y+1), -1)
			}
		}
	}
	return mustCSR(coo)
}

// Poisson3D generates the 7-point Laplacian on a k×k×k grid (n = k³).
func Poisson3D(k int) *CSR {
	n := k * k * k
	coo := newCOO(n, n, 7*n)
	idx := func(x, y, z int) int { return (z*k+y)*k + x }
	for z := 0; z < k; z++ {
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				i := idx(x, y, z)
				coo.Add(i, i, 6)
				if x > 0 {
					coo.Add(i, idx(x-1, y, z), -1)
				}
				if x < k-1 {
					coo.Add(i, idx(x+1, y, z), -1)
				}
				if y > 0 {
					coo.Add(i, idx(x, y-1, z), -1)
				}
				if y < k-1 {
					coo.Add(i, idx(x, y+1, z), -1)
				}
				if z > 0 {
					coo.Add(i, idx(x, y, z-1), -1)
				}
				if z < k-1 {
					coo.Add(i, idx(x, y, z+1), -1)
				}
			}
		}
	}
	return mustCSR(coo)
}

// Tridiag generates the n×n tridiagonal [-1, 2, -1] matrix.
func Tridiag(n int) *CSR {
	coo := newCOO(n, n, 3*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i > 0 {
			coo.Add(i, i-1, -1)
		}
		if i < n-1 {
			coo.Add(i, i+1, -1)
		}
	}
	return mustCSR(coo)
}

// Arrow generates an arrowhead matrix: dense first `width` rows and
// columns plus a diagonal — extreme row-length skew with a hot
// corner, stressing load balance and caching of the shared rows.
func Arrow(n, width int, seed uint64) *CSR {
	rng := newRNG(seed)
	if width >= n {
		width = n / 2
	}
	coo := newCOO(n, n, n+2*(n-width)*width)
	for i := 0; i < n; i++ {
		coo.Add(i, i, diagVal(rng))
		if i >= width {
			for j := 0; j < width; j++ {
				coo.Add(i, j, offVal(rng))
				coo.Add(j, i, offVal(rng))
			}
		}
	}
	return mustCSR(coo)
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
