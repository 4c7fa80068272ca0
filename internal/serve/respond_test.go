package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/store"
)

// FuzzQueryResponse holds writeQuery, which writes a /v1/query answer
// without encoding/json, to writeJSON, the reference: for the same
// QueryResponse both must write the same status, Content-Type and body
// bytes. The response carries a digest and trace ID formed as the
// server forms them, each source, any footprint, and any finite
// gflops and app_gbs: zero and negative zero, and the 'e'-format
// ranges below 1e-6 and from 1e21 among them. Its cell is json.Marshal
// output, as every cell the daemon holds is: a dense memsim.Result
// whose strings hold the label, or a harness.CurvePoint.
func FuzzQueryResponse(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(0.0, 0.0, int64(0), uint8(0), "key", "GEMM", false)
	f.Add(negZero, negZero, int64(-1), uint8(1), "", "<a> & <b>", false)
	f.Add(1e-7, 9.99999e-7, int64(1)<<40, uint8(2), "k|1024", "Stream", true)
	f.Add(1e-6, 9.999999999999999e20, int64(1)<<20, uint8(0), "bounds", "FFT", true)
	f.Add(1e21, -1e21, int64(math.MaxInt64), uint8(0), "\"\\", "\u2028 \xff", false)
	f.Add(5e-324, math.MaxFloat64, int64(math.MinInt64), uint8(1), "x", "", true)
	f.Add(1201.3333333333333, 9.600000000000001, int64(8)<<30, uint8(2), "cfg|GEMM|2048|256", "knl", false)
	sources := [...]string{"hot", "store", "computed"}
	f.Fuzz(func(t *testing.T, gflops, appGBs float64, footprint int64, source uint8, key, label string, curve bool) {
		if math.IsNaN(gflops) || math.IsInf(gflops, 0) || math.IsNaN(appGBs) || math.IsInf(appGBs, 0) {
			t.Skip("the result gate refuses a non-finite result")
		}
		var v any = memsim.Result{Kernel: label, Machine: label + "/<ddr>&", Mode: memsim.ModeEDRAM,
			GFlops: gflops, MemGBs: appGBs, FootprintBytes: footprint, LatencySec: gflops * 1e-30}
		if curve {
			v = harness.CurvePoint{Footprint: footprint,
				GFlops: map[memsim.Mode]float64{memsim.ModeDDR: gflops, memsim.ModeEDRAM: appGBs},
				GBs:    map[memsim.Mode]float64{memsim.ModeDDR: appGBs, memsim.ModeEDRAM: gflops * 1e-9}}
		}
		cell, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		digest := store.Digest("model", "cfg", "dense", key)
		resp := QueryResponse{
			Digest:    digest,
			Trace:     harness.CellTraceID(digest),
			Source:    sources[int(source)%len(sources)],
			GFlops:    gflops,
			AppGBs:    appGBs,
			Footprint: footprint,
			Cell:      cell,
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, &resp)
		got := httptest.NewRecorder()
		writeQuery(got, &resp)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Fatalf("status %d, Content-Type %q; writeJSON: %d, %q",
				got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("writeQuery wrote\n%q\nwriteJSON wrote\n%q", got.Body.Bytes(), want.Body.Bytes())
		}
	})
}

// TestHotHitAllocates pins the allocations of a hot hit through answer:
// resolving the query (its cell, compute closure and dense key), its
// digest and trace ID, the trace key and the recv event's detail
// string. The hit decodes nothing, so a cell's size or shape costs it no
// allocation. The collector is off while counting, as a collection adds
// the runtime's own allocations to the count. Nothing on the path draws
// from a sync.Pool, which the race detector empties at random, so the
// count holds under -race too.
func TestHotHitAllocates(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := QueryRequest{Platform: "broadwell", Mode: "edram", Kind: "GEMM", N: 2048, NB: 256, Class: "interactive"}
	if resp, err := srv.answer(ctx, req); err != nil || resp.Source != "computed" {
		t.Fatalf("warm-up answer: source %q, err %v", resp.Source, err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var resp QueryResponse
	allocs := testing.AllocsPerRun(50, func() {
		if resp, err = srv.answer(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if resp.Source != "hot" {
		t.Fatalf("source %q, want hot", resp.Source)
	}
	if allocs > 8 {
		t.Errorf("hot hit: %v allocations, want at most 8", allocs)
	}
}

// TestServeCurveCellAnswersEveryMode: a curve cell's digest does not
// depend on the mode, so the entry the ddr query computed answers the
// edram query as a hot hit, with the cell's edram numbers. A fresh
// server over the same journal decodes the cell once, on the store hit
// that promotes it, and its hot entry answers the other mode.
func TestServeCurveCellAnswersEveryMode(t *testing.T) {
	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ddr := QueryRequest{Platform: "broadwell", Mode: "ddr", Kernel: "Stream", Footprint: 1 << 16}
	edram := ddr
	edram.Mode = "edram"
	check := func(h http.Handler, q QueryRequest, source string) {
		t.Helper()
		resp := decodeQuery(t, postQuery(t, h, "/v1/query", q))
		var pt harness.CurvePoint
		if err := json.Unmarshal(resp.Cell, &pt); err != nil {
			t.Fatal(err)
		}
		mode, err := memsim.ParseMode(q.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != source || resp.GFlops != pt.GFlops[mode] || resp.AppGBs != pt.GBs[mode] ||
			resp.Footprint != pt.Footprint || resp.GFlops <= 0 {
			t.Fatalf("%s query answered %+v; want source %s and the cell's %s numbers %v, %v, %d",
				q.Mode, resp, source, q.Mode, pt.GFlops[mode], pt.GBs[mode], pt.Footprint)
		}
	}
	for _, c := range []struct {
		first, second QueryRequest
		source        string
	}{{ddr, edram, "computed"}, {edram, ddr, "store"}} {
		reg := obs.NewRegistry()
		srv, err := New(Config{Store: st, Registry: reg, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		check(h, c.first, c.source)
		check(h, c.second, "hot")
		if n := srv.hot.len(); n != 1 {
			t.Fatalf("hot set holds %d entries for one cell, want 1", n)
		}
	}
}

// TestServeUndecodableJournalCell: a journaled cell that fails to
// decode at promotion is the daemon's own failure, not the request's.
// It answers 500, counts on serve/errors, and is not cached, so every
// query for it fails the same way.
func TestServeUndecodableJournalCell(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 1024, NB: 128, Class: "interactive"}
	c, err := srv.cat.resolve(q, srv.eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(c.digest(), c.family, c.key, json.RawMessage(`{"GFlops":"fast"}`)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for i := 0; i < 2; i++ {
		w := postQuery(t, h, "/v1/query", q)
		if w.Code != http.StatusInternalServerError || !bytes.Contains(w.Body.Bytes(), []byte("serve: decoding dense cell")) {
			t.Fatalf("query %d: status %d %s, want 500 with the decode error", i, w.Code, w.Body)
		}
	}
	if n := reg.Counter("serve/errors").Value(); n != 2 {
		t.Fatalf("serve/errors = %d, want 2", n)
	}
	if n := srv.hot.len(); n != 0 {
		t.Fatalf("hot set cached %d undecodable cells", n)
	}
}

// TestServeConcurrentHotHits: clients answered at once share the hot
// set and the pooled answer buffers. Every answer must carry its own
// query's bytes: the same body, byte for byte, as the answer the
// query got alone.
func TestServeConcurrentHotHits(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	queries := []QueryRequest{
		{Platform: "broadwell", Mode: "ddr", Kernel: "Stream", Footprint: 1 << 16},
		{Platform: "broadwell", Mode: "edram", Kernel: "Stream", Footprint: 1 << 16},
		{Platform: "broadwell", Mode: "edram", Kind: "GEMM", N: 2048, NB: 256},
		{Platform: "knl", Mode: "flat", Kind: "Cholesky", N: 4096, NB: 512},
	}
	bodies := make([][]byte, len(queries))
	want := make([][]byte, len(queries))
	for i, q := range queries {
		decodeQuery(t, postQuery(t, h, "/v1/query", q)) // computes or warms
		w := postQuery(t, h, "/v1/query", q)
		if w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
		want[i] = w.Body.Bytes()
		if bodies[i], err = json.Marshal(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(queries)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(bodies[i])))
				if !bytes.Equal(w.Body.Bytes(), want[i]) {
					t.Errorf("client %d, query %d: got %q, want %q", g, i, w.Body.Bytes(), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
