// Package sparse provides the sparse-matrix substrate for the
// reproduction: COO/CSR/CSC storage, format conversion and
// transposition, Matrix Market I/O, segmented sorting of column
// indices, level scheduling for triangular solves, structure metrics,
// and a synthetic 968-matrix collection standing in for the University
// of Florida Sparse Matrix Collection subset used by the paper.
package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix. Entries may be unsorted
// and (before Dedup) may contain duplicates.
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *COO) NNZ() int { return len(a.Val) }

// newCOO returns an empty rows×cols COO with room for capacity
// entries: a generator sizes it once from the entry bound it knows, so
// Add never grows the slices. A capacity below zero reserves nothing.
func newCOO(rows, cols, capacity int) *COO {
	capacity = max(capacity, 0)
	return &COO{
		Rows:   rows,
		Cols:   cols,
		RowIdx: make([]int32, 0, capacity),
		ColIdx: make([]int32, 0, capacity),
		Val:    make([]float64, 0, capacity),
	}
}

// Add appends an entry.
func (a *COO) Add(i, j int, v float64) {
	a.RowIdx = append(a.RowIdx, int32(i))
	a.ColIdx = append(a.ColIdx, int32(j))
	a.Val = append(a.Val, v)
}

// Validate checks index bounds and shape.
func (a *COO) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowIdx) != len(a.Val) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: ragged COO arrays (%d,%d,%d)",
			len(a.RowIdx), len(a.ColIdx), len(a.Val))
	}
	for k := range a.Val {
		if r := a.RowIdx[k]; r < 0 || int(r) >= a.Rows {
			return fmt.Errorf("sparse: row index %d out of range at entry %d", r, k)
		}
		if c := a.ColIdx[k]; c < 0 || int(c) >= a.Cols {
			return fmt.Errorf("sparse: col index %d out of range at entry %d", c, k)
		}
	}
	return nil
}

// ToCSR converts to CSR, summing duplicate entries. Column indices
// within each row come out sorted.
func (a *COO) ToCSR() (*CSR, error) {
	if err := a.Validate(); err != nil {
		return nil, err
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
	m.SortRows()
	m.dedupSortedInPlace()
	return m, nil
}

// CSR is a compressed-sparse-row matrix: the central format of the
// evaluated kernels (CSR5-based SpMV, ScanTrans, SpMP SpTRSV all start
// from CSR).
type CSR struct {
	Rows, Cols int
	RowPtr     []int64 // length Rows+1
	ColIdx     []int32 // length NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// FootprintBytes returns the CSR storage footprint using the paper's
// Table 2 accounting: 8-byte values, 4-byte column indices, plus row
// pointers and the dense vectors a kernel streams (x and y for SpMV).
func (m *CSR) FootprintBytes() int64 {
	return int64(m.NNZ())*12 + int64(m.Rows+1)*4 + int64(m.Rows)*16
}

// Validate checks structural invariants: monotone row pointers, index
// bounds, and per-row sorted unique columns.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: rowptr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: rowptr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: nnz mismatch rowptr=%d colidx=%d val=%d",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return fmt.Errorf("sparse: rowptr not monotone at row %d", i)
		}
		prev := int32(-1)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: col %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, p)
			}
			prev = c
		}
	}
	return nil
}

// SortRows sorts the column indices (and values) within each row — the
// paper's segmented-sort preprocessing step. Implemented as a
// segmented sort over (RowPtr) segments; see segsort.go for the
// underlying routine.
func (m *CSR) SortRows() {
	SegmentedSort(m.RowPtr, m.ColIdx, m.Val)
}

// dedupSortedInPlace merges duplicate (row, col) entries by summing
// values; rows must already be sorted. It works in place: RowPtr[i] is
// read before it is overwritten, and merged entries never overtake the
// ones still to be read.
func (m *CSR) dedupSortedInPlace() {
	out := int64(0)
	for i := 0; i < m.Rows; i++ {
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		m.RowPtr[i] = out
		out = mergeRow(m.ColIdx, m.Val, start, end, out)
	}
	m.RowPtr[m.Rows] = out
	m.ColIdx = m.ColIdx[:out]
	m.Val = m.Val[:out]
}

// mergeRow sums each run of equal columns in the sorted row k[lo:hi],
// v[lo:hi] from left to right, writes the merged row to k and v from
// out on (out <= lo) and returns where it ends.
func mergeRow(k []int32, v []float64, lo, hi, out int64) int64 {
	for p := lo; p < hi; {
		c, s := k[p], v[p]
		q := p + 1
		for q < hi && k[q] == c {
			s += v[q]
			q++
		}
		k[out], v[out] = c, s
		out++
		p = q
	}
	return out
}

// At returns the entry (i, j), or zero when absent. O(log row nnz).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	seg := m.ColIdx[lo:hi]
	k := sort.Search(len(seg), func(p int) bool { return seg[p] >= int32(j) })
	if k < len(seg) && seg[k] == int32(j) {
		return m.Val[lo+int64(k)]
	}
	return 0
}

// Clone returns a deep copy.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// ToCOO converts to coordinate format.
func (m *CSR) ToCOO() *COO {
	a := &COO{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowIdx: make([]int32, m.NNZ()),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			a.RowIdx[p] = int32(i)
		}
	}
	return a
}

// LowerTriangle extracts the lower-triangular part of a square matrix
// and forces a nonsingular diagonal (the paper adds a diagonal to
// singular inputs before SpTRSV, Appendix A.2.5). A counting pass sizes
// the output before it is filled.
func (m *CSR) LowerTriangle() (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("sparse: LowerTriangle needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	// lower returns the end of row i's lower part, which stops at the
	// first column past the diagonal, and whether it holds the diagonal.
	lower := func(i int) (end int64, hasDiag bool) {
		end = m.RowPtr[i]
		for ; end < m.RowPtr[i+1] && int(m.ColIdx[end]) <= i; end++ {
			if int(m.ColIdx[end]) == i {
				hasDiag = true
			}
		}
		return end, hasDiag
	}
	nnz := 0
	for i := 0; i < m.Rows; i++ {
		end, hasDiag := lower(i)
		nnz += int(end - m.RowPtr[i])
		if !hasDiag {
			nnz++
		}
	}
	l := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int64, m.Rows+1),
		ColIdx: make([]int32, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for i := 0; i < m.Rows; i++ {
		l.RowPtr[i] = int64(len(l.Val))
		end, hasDiag := lower(i)
		for p := m.RowPtr[i]; p < end; p++ {
			v := m.Val[p]
			if int(m.ColIdx[p]) == i && v == 0 {
				v = 1
			}
			l.ColIdx = append(l.ColIdx, m.ColIdx[p])
			l.Val = append(l.Val, v)
		}
		if !hasDiag {
			l.ColIdx = append(l.ColIdx, int32(i))
			l.Val = append(l.Val, 1)
		}
	}
	l.RowPtr[m.Rows] = int64(len(l.Val))
	l.SortRows()
	return l, nil
}

// CSC is a compressed-sparse-column matrix, the output format of
// SpTRANS (CSR -> CSC conversion is a transposition of the underlying
// structure).
type CSC struct {
	Rows, Cols int
	ColPtr     []int64
	RowIdx     []int32
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// Validate checks the CSC structural invariants.
func (m *CSC) Validate() error {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("sparse: CSC invalid (as transposed CSR): %w", err)
	}
	return nil
}

// ToCSR reinterprets the CSC as the CSR of the transposed matrix and
// converts it back to a CSR of the same matrix.
func (m *CSC) ToCSR() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	return Transpose(t)
}
