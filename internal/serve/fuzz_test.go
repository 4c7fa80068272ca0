package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// FuzzQueryRequest decodes arbitrary bytes as a POST /v1/query body
// through decodeBody, as handleQuery does, and resolves the request on
// one catalog shared across inputs, as the daemon's is. No cell is
// computed.
// Resolve must never panic. A cell it accepts must carry the digest
// harness.CellDigest gives when every config fingerprint is computed
// from scratch with obs.Hash, which guards both cached fingerprints
// (the catalog's per-platform spec hash and Machine.ConfigHash in
// dense keys). The accepted request, re-marshalled and decoded again,
// must resolve to the same digest. The committed seeds under
// testdata/fuzz/FuzzQueryRequest hold a dense and a curve query per
// platform, an unknown mode, nb > n, a zero footprint, an unknown
// kernel, kernel and kind together, and an empty body.
func FuzzQueryRequest(f *testing.F) {
	cat := newCatalog()
	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		if err := decodeBody(bytes.NewReader(body), &req); err != nil {
			return
		}
		c, err := cat.resolve(req, nil)
		if err != nil {
			return
		}
		got := c.digest()
		if want := scratchDigest(t, req); got != want {
			t.Fatalf("%+v resolves to digest %s, from scratch %s", req, got, want)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var req2 QueryRequest
		if err := decodeBody(bytes.NewReader(again), &req2); err != nil {
			t.Fatalf("re-marshalled request %s does not decode: %v", again, err)
		}
		c2, err := cat.resolve(req2, nil)
		if err != nil {
			t.Fatalf("re-marshalled request %s rejected: %v", again, err)
		}
		if d := c2.digest(); d != got {
			t.Fatalf("re-marshalled request %s resolves to %s, want %s", again, d, got)
		}
	})
}

// scratchDigest derives the exact-estimator digest of an accepted
// request without any cached fingerprint: fresh machines, obs.Hash over
// their configs, and the dense and curve key layouts spelled out.
func scratchDigest(t *testing.T, req QueryRequest) string {
	t.Helper()
	spec, err := harness.NewCurveSpec(req.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "" {
		mode, err := memsim.ParseMode(req.Mode)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := spec.Machine(mode)
		if !ok {
			t.Fatalf("no %s machine on %s", req.Mode, req.Platform)
		}
		key := fmt.Sprintf("%s|%s|%d|%d", obs.Hash(m.Config()), req.Kind, req.N, req.NB)
		return harness.CellDigest(core.Exact, harness.DenseSweepID, "", key)
	}
	vals := make([]any, 0, len(spec.Machines)+1)
	for _, m := range spec.Machines {
		vals = append(vals, m.Config())
	}
	vals = append(vals, spec.Platform.Scale)
	return harness.CellDigest(core.Exact, harness.CurveSweepID(req.Kernel), obs.Hash(vals...), fmt.Sprint(req.Footprint))
}
