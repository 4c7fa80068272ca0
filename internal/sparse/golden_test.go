package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// csrDigest is the SHA-256 of a CSR's shape, RowPtr, ColIdx and the
// bit patterns of Val, little-endian.
func csrDigest(m *CSR) string {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(m.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Cols))
	for _, p := range m.RowPtr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}
	for _, c := range m.ColIdx {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, v := range m.Val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// levelsDigest is the SHA-256 of a level schedule's Order and Ptr.
func levelsDigest(s *LevelSchedule) string {
	h := sha256.New()
	var buf []byte
	for _, r := range s.Order {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	for _, p := range s.Ptr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorsGolden pins the bytes of one spec of every family at
// two paper footprints (4 MB and 64 MB, instantiated at Broadwell's
// scale of 16), of its lower triangle and of that triangle's level
// schedule. The row lengths are chosen so RandomUniform and RMAT sum
// duplicate entries and BlockDiag and Arrow sort rows longer than the
// insertion-sort cutoff. A change to how a generator builds its matrix
// (allocation, append order, sorting, duplicate merging) must leave
// every digest as it is.
func TestGeneratorsGolden(t *testing.T) {
	rowNNZ := map[Family]int{
		FamBanded:        12,
		FamRandomUniform: 8,
		FamRMAT:          16,
		FamBlockDiag:     48,
		FamPoisson2D:     5,
		FamPoisson3D:     7,
		FamTridiag:       3,
		FamArrow:         64,
	}
	// Each value is the digests of the matrix, its lower triangle and
	// the triangle's level schedule.
	want := map[string][3]string{
		"banded-4MB": {
			"b3e1f69531c4c13e8be013a8d6aa0be9e71d63fc66bbd2081edaa4b663450753",
			"eb618b652250490610946289a77da13a286a77eb9372c77278491f0e23bf64b9",
			"a0477ed500735d0592481eb3118bb69c9a7928649d9b754ad0533ea8bac6efa9",
		},
		"banded-64MB": {
			"cb5388e2b3abe61e01480c97f819923ef61e967c9eb41680c02f80bf41f629aa",
			"3e4da1efe5986beafbb69f04c7445bf2e64ec323f9144920bb5a9862f6f47c83",
			"016152a747a0b49c896510d3b67cf8b16c3c8f8f527327a6bf97fd1b9f8c7491",
		},
		"random-4MB": {
			"2a7479dc3e00c77357ac3da0f0393697ac5a9ca16ab24bea38474c7fda9890e9",
			"746f52cad9fad742a44570fd6c114b69fc875e1f892dc7882568b707a5154491",
			"bf9f7487a86d87de3250fda888541a67922a0b617d00e1e639e900ca818f8405",
		},
		"random-64MB": {
			"9ace0960c6c466c990d476848086cc30987eab95d2ebfae8630035405c6bc486",
			"3e5653161f133b06acf378ffeeea02dae5db2019870bfdad055e95b7a4f2b9ba",
			"21a56d3413237d4cdfad62f4be3d9e64921da21bf2e49c2a6f85b6f260d76a88",
		},
		"rmat-4MB": {
			"6eba9a35e36fbe764ba9a5e63135465c710091350a49b79e0ed3f0bf6427d227",
			"396b0c7d1ab4b67301b007285f30717187c1e1dff7aadcb6b20ec3a071c4282d",
			"d96b111c77ce0185a49b511449c884398a36f821e924de35ae1a21c01a65f68a",
		},
		"rmat-64MB": {
			"ab7f3eeb6e88b2e750fec78055ea03d98bdfcfbdd8357032844f243a32f09f67",
			"e1bc47d400c081de721d2ab6d64d18e93cc05d4bc51eda721c6b5b090cb712c9",
			"a49469565bb6da8353ed23d318c2b66348e74be4090aca493006942757707a68",
		},
		"blockdiag-4MB": {
			"7a1a22b90908b24564f633c27cf0d4b7719db19eff593dc6edec3d773ba39130",
			"6f4a05078ee2ed83e9aaff1999afbe7393e5c761b0a23383230c5336ba831990",
			"b090ffdc17f0a132a6228dc86764ba8ca3f12e2ca33b849479fcff5960dc213c",
		},
		"blockdiag-64MB": {
			"be26e78e2beb408f7b9b712c945d64d68ca8bb3c71d5341d76bfce9c7f3d71ac",
			"b8926ccd6e465b2abed60f357192ceb36323b4cf3062d6845a9da8ad42405ecd",
			"5379e1dc002c0d1632aa9db90a331d9bff5479ca658cc95f1c94160f8355156c",
		},
		"poisson2d-4MB": {
			"181406e5c21f4bcc1c9cf05f1d56490cdce2e7328e4b5c02541ec4504e17d84d",
			"c35f91bd52a2d06978a8f70e741a9e565da7245e1a3884c477e4a2241302f0a6",
			"e146ddbbe1173cd354c5b6dabb1530f7db9719fc5d40034d7d5a7f1f1e1e92eb",
		},
		"poisson2d-64MB": {
			"11cc915779a93688eb3f9fc98334bb86dad31705f0aef7c8c6d385a7a7141b2f",
			"1d0062c5de3e0477bfac6cee893b13b67f65ee217db6ce540e0d2cad985842bf",
			"c87e564526a5ac3fadc0ec4407ddb5bae82fefaf2e9767cbfdf55716d448695b",
		},
		"poisson3d-4MB": {
			"15d126e6e635160ca494b71fa2d0a7f21227ce98bd36cdb27d0da4c62dc9f030",
			"4c8a835c00bfb8d6fda266afa89cb0658d6572a93ce728025d507dbf077b25b3",
			"bf515a3a607b5c4b2009843b94e65a341ef9ac1eb5e71a536b20205971519dc1",
		},
		"poisson3d-64MB": {
			"3c66ba5720a1b9a2eb759fd9b504c94614e95ee0913957b52d4486d4d00c566a",
			"6dbcc98b75ea5183d9c7d74936e3742da75b8f4f0c7307cbcfe4f9121bb4fcae",
			"ca5da0ab8a0192674513511b6fb998cfd6d4860fe547ad22896031fbec8278e5",
		},
		"tridiag-4MB": {
			"18365da683a9b2b29a054bfdeaebfbba136b03b2bdcdc8e372bdab4bdc437b6c",
			"6c239709739aadf1630bd41b54a9c4e36dcd95f6054d1a10d1fe5802ebea7c58",
			"4d958bf5f5091f536a1c3e796b92c2da5f77f8f0530169264833d53d4de881a8",
		},
		"tridiag-64MB": {
			"8def2d1b56c19a40209fb43c66cc84fef924346ad9376cf21871973e4c832f18",
			"c9a09ed5826f3fe52d9dbedce4ec9e87514fafd22b2a095af77f3ede2ac9ab5e",
			"d61485441f83a47a1f43e7abaca40722c15657e7023ae2c66a29a843641c19f9",
		},
		"arrow-4MB": {
			"984315e301b90ebcb63630c6b45c4538b80d7d0d569342f5c7142a8cea52849c",
			"c25756575708a7ced3b135b4ed1f16a50dc0f70fad7ca2b708839c38e4ab330c",
			"5c799fe77b202b554c08d476792920ac1ea5e4e973d2ace3fd3b647c0297b0d8",
		},
		"arrow-64MB": {
			"04f28d43e8425e362c47e533db9ee629206b9674041641f641cd2cd4582d17f1",
			"d65456c3d2337a1105b56a90567f46c5cab61d38e2f8aee039805da8c96aa64e",
			"a0e09e7e8b3c06f0ff665469f008dc4c60ca84ca6c3a308abbd6319eaf263184",
		},
	}
	for f := Family(0); f < NumFamilies; f++ {
		for _, fp := range []int64{4 << 20, 64 << 20} {
			sp := Spec{
				Name:           fmt.Sprintf("%s-%dMB", f, fp>>20),
				Family:         f,
				PaperFootprint: fp,
				RowNNZ:         rowNNZ[f],
				Seed:           uint64(f)*0x9e3779b97f4a7c15 + uint64(fp),
			}
			m, err := sp.Checked(16)
			if err != nil {
				t.Fatal(err)
			}
			l, err := m.LowerTriangle()
			if err != nil {
				t.Fatal(err)
			}
			lv, err := BuildLevels(l)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]string{csrDigest(m), csrDigest(l), levelsDigest(lv)}
			if w, ok := want[sp.Name]; !ok || got != w {
				t.Errorf("%s (%d rows, %d nnz): digests\n\t%q,\n\t%q,\n\t%q\nwant %q", sp.Name, m.Rows, m.NNZ(), got[0], got[1], got[2], w)
			}
		}
	}
}
