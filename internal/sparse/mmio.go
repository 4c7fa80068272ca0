package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix Market I/O: the interchange format of the UF Sparse Matrix
// Collection the paper's kernels consume (matrix.mtx arguments in
// Appendix A). Supported: "matrix coordinate (real|integer|pattern)
// (general|symmetric)".

// WriteMatrixMarket writes m in coordinate real general format.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a coordinate-format Matrix Market stream
// into CSR, expanding symmetric storage and summing duplicates.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", header[2])
	}
	field := header[3]
	pattern := field == "pattern"
	if field != "real" && field != "integer" && !pattern {
		return nil, fmt.Errorf("sparse: unsupported field %q", field)
	}
	symmetric := false
	if len(header) >= 5 {
		switch header[4] {
		case "general":
		case "symmetric":
			symmetric = true
		default:
			return nil, fmt.Errorf("sparse: unsupported symmetry %q", header[4])
		}
	}

	// Skip comments; read size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %w", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: bad dimensions %dx%d", rows, cols)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: dimensions %dx%d exceed the int32 indices of COO and CSR", rows, cols)
	}
	coo := &COO{Rows: rows, Cols: cols}
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || (!pattern && len(f) < 3) {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row in %q: %w", line, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col in %q: %w", line, err)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value in %q: %w", line, err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of bounds %dx%d", i, j, rows, cols)
		}
		coo.Add(i-1, j-1, v)
		if symmetric && i != j {
			coo.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: read error: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR()
}
