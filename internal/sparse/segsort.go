package sparse

import "sort"

// SegmentedSort sorts keys (and reorders vals identically) within each
// segment delimited by ptr, the preprocessing the paper applies to all
// 968 matrices ("rows ... ordered by using the segmented sort"). Each
// segment is sorted by sortRow.
func SegmentedSort(ptr []int64, keys []int32, vals []float64) {
	var pv pairView
	for s := 0; s+1 < len(ptr); s++ {
		lo, hi := ptr[s], ptr[s+1]
		sortRow(&pv, keys[lo:hi], vals[lo:hi])
	}
}

// sortRow sorts one row's column indices k, moving the values v with
// them. Short rows, the common case, use a stable insertion sort; rows
// longer than 32 entries fall back to sort.Sort on pv, which the
// caller reuses across rows so that sorting allocates it once. Every
// CSR this package builds sorts its rows here, so a row's order, and
// the order in which mergeRow sums its duplicate columns, is the same
// whichever path built it.
func sortRow(pv *pairView, k []int32, v []float64) {
	const insertionCutoff = 32
	if len(k) <= insertionCutoff {
		insertionSortPair(k, v)
		return
	}
	*pv = pairView{k, v}
	sort.Sort(pv)
}

func insertionSortPair(k []int32, v []float64) {
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

type pairView struct {
	k []int32
	v []float64
}

func (p *pairView) Len() int           { return len(p.k) }
func (p *pairView) Less(i, j int) bool { return p.k[i] < p.k[j] }
func (p *pairView) Swap(i, j int) {
	p.k[i], p.k[j] = p.k[j], p.k[i]
	p.v[i], p.v[j] = p.v[j], p.v[i]
}
