package sparse

import (
	"bytes"
	"strings"
	"testing"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	m := RMAT(100, 600, 21)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCSR(m, back) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
1 1 2.0
2 1 -1.0
3 3 5.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 { // off-diagonal mirrored
		t.Fatalf("nnz = %d, want 4", m.NNZ())
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Fatal("symmetric expansion missing")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Fatal("pattern entries should default to 1")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "%%NotMatrixMarket\n1 1 1\n1 1 1\n",
		"array format": "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short entry":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"out of range": "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
		"truncated":    "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n",
		"bad row":      "%%MatrixMarket matrix coordinate real general\n1 1 1\nx 1 1.0\n",
		"bad dims":     "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		// Dimensions past the int32 indices COO and CSR store: 2^50
		// rows, and 2^32+1 columns, whose entry would wrap to column 0.
		"rows past int32": "%%MatrixMarket matrix coordinate real general\n1125899906842624 1 0\n",
		"cols past int32": "%%MatrixMarket matrix coordinate real general\n2 4294967297 1\n1 4294967297 1.5\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteMatrixMarketHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, Tridiag(3)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "%%MatrixMarket matrix coordinate real general\n3 3 7\n") {
		t.Fatalf("bad header: %q", out[:60])
	}
	// 1-based indices.
	if !strings.Contains(out, "1 1 2") {
		t.Fatal("expected 1-based diagonal entry")
	}
}
