package sparse

import "sort"

// The reference generators: each family built through a COO, which
// refCSR converts to CSR with its own copy of the row sort and the
// duplicate merge. FuzzGenerators holds every production generator to
// these, bit for bit; nothing else calls them.

func refBanded(n, band, nnzPerRow int, seed uint64) *CSR {
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
	return refCSR(coo)
}

func refRandomUniform(n, nnzPerRow int, seed uint64) *CSR {
	rng := newRNG(seed)
	coo := newCOO(n, n, n*max(nnzPerRow, 1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, diagVal(rng))
		for k := 1; k < nnzPerRow; k++ {
			coo.Add(i, rng.IntN(n), offVal(rng))
		}
	}
	return refCSR(coo)
}

func refRMAT(n, nnz int, seed uint64) *CSR {
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
	return refCSR(coo)
}

func refBlockDiag(n, blockSize int, seed uint64) *CSR {
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
	return refCSR(coo)
}

func refPoisson2D(k int) *CSR {
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
	return refCSR(coo)
}

func refPoisson3D(k int) *CSR {
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
	return refCSR(coo)
}

func refTridiag(n int) *CSR {
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
	return refCSR(coo)
}

func refArrow(n, width int, seed uint64) *CSR {
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
	return refCSR(coo)
}

// refCSR is the COO-to-CSR conversion the reference generators end
// with: scatter the entries into rows in append order, sort each row
// (insertion sort up to 32 entries, sort.Sort beyond) and sum equal
// columns left to right. It panics where a generator's COO is invalid.
func refCSR(a *COO) *CSR {
	if err := a.Validate(); err != nil {
		panic(err)
	}
	m := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int64, a.Rows+1)}
	for _, r := range a.RowIdx {
		m.RowPtr[r+1]++
	}
	for i := 0; i < a.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := int(m.RowPtr[a.Rows])
	m.ColIdx = make([]int32, nnz)
	m.Val = make([]float64, nnz)
	cursor := make([]int64, a.Rows)
	copy(cursor, m.RowPtr[:a.Rows])
	for k := range a.Val {
		r := a.RowIdx[k]
		p := cursor[r]
		m.ColIdx[p] = a.ColIdx[k]
		m.Val[p] = a.Val[k]
		cursor[r]++
	}
	for s := 0; s < m.Rows; s++ {
		lo, hi := m.RowPtr[s], m.RowPtr[s+1]
		k, v := m.ColIdx[lo:hi], m.Val[lo:hi]
		if hi-lo > 32 {
			sort.Sort(&pairView{k, v})
			continue
		}
		for i := 1; i < len(k); i++ {
			ki, vi := k[i], v[i]
			j := i - 1
			for j >= 0 && k[j] > ki {
				k[j+1], v[j+1] = k[j], v[j]
				j--
			}
			k[j+1], v[j+1] = ki, vi
		}
	}
	out := int64(0)
	newPtr := make([]int64, len(m.RowPtr))
	for i := 0; i < m.Rows; i++ {
		newPtr[i] = out
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		for p := start; p < end; {
			c := m.ColIdx[p]
			v := m.Val[p]
			q := p + 1
			for q < end && m.ColIdx[q] == c {
				v += m.Val[q]
				q++
			}
			m.ColIdx[out] = c
			m.Val[out] = v
			out++
			p = q
		}
	}
	newPtr[m.Rows] = out
	copy(m.RowPtr, newPtr)
	m.ColIdx = m.ColIdx[:out]
	m.Val = m.Val[:out]
	return m
}
