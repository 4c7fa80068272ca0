package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// postQuery drives one request through the daemon's real mux.
func postQuery(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
	return w
}

func getPath(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

func decodeQuery(t *testing.T, w *httptest.ResponseRecorder) *QueryResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", w.Code, w.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &resp
}

// syncBuffer is a mutex-guarded trace sink, so a test may read it
// while the daemon emits.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// newTracer returns a tracer writing to a syncBuffer, and a func that
// flushes it and decodes every complete line written so far.
func newTracer(t *testing.T) (*obs.Tracer, func() []obs.Event) {
	sink := &syncBuffer{}
	tr := obs.NewTracer(sink)
	return tr, func() []obs.Event {
		t.Helper()
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		sink.mu.Lock()
		data := bytes.Clone(sink.buf.Bytes())
		sink.mu.Unlock()
		// An emit racing this read may have flushed part of a line.
		evs, err := obs.ReadTrace(bytes.NewReader(data[:bytes.LastIndexByte(data, '\n')+1]))
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
}

// traceNames returns the event-name multiset of one trace chain, seen
// after a seq watermark.
func traceNames(events []obs.Event, trace string, afterSeq uint64) map[string]int {
	names := map[string]int{}
	for _, ev := range events {
		if ev.Trace == trace && ev.Seq > afterSeq {
			names[ev.Name]++
		}
	}
	return names
}

func maxSeq(events []obs.Event) uint64 {
	var max uint64
	for _, ev := range events {
		if ev.Seq > max {
			max = ev.Seq
		}
	}
	return max
}

// TestServeColdThenHotThenStore proves acceptance (a) and the serve
// half of (b): a cold query computes through admission + worker
// pool, journals under the exact digest the batch sweeps derive, and
// returns byte-for-byte the value the batch per-job body computes; a
// repeat is a hot-set hit whose trace chain shows it never touched the
// journal or the pool; a fresh daemon over the same journal serves the
// same bytes as a store hit without computing.
func TestServeColdThenHotThenStore(t *testing.T) {
	reg := obs.NewRegistry()
	tr, events := newTracer(t)
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := New(Config{Store: st, Registry: reg, Tracer: tr, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const fp = int64(1 << 20)
	q := QueryRequest{Platform: "broadwell", Mode: "edram", Kernel: "Stream", Footprint: fp}
	r1 := decodeQuery(t, postQuery(t, h, "/v1/query", q))
	if r1.Source != "computed" {
		t.Fatalf("cold answer source %q, want computed", r1.Source)
	}
	if r1.GFlops <= 0 || r1.AppGBs <= 0 || r1.Footprint <= 0 {
		t.Fatalf("cold answer rendered empty cell: %+v", r1)
	}

	// The digest is exactly the one batch sweeps derive for this cell,
	// so opmbench runs and the daemon warm each other.
	spec, err := harness.NewCurveSpec("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := harness.CellDigest(core.Exact, harness.CurveSweepID("Stream"),
		spec.ConfigHash(), harness.CurveCellKey(fp))
	if r1.Digest != wantDigest {
		t.Fatalf("digest %q, want batch digest %q", r1.Digest, wantDigest)
	}
	if r1.Trace != harness.CellTraceID(wantDigest) {
		t.Fatalf("trace %q, want cell trace %q", r1.Trace, harness.CellTraceID(wantDigest))
	}

	// The journaled bytes are the response bytes...
	raw, ok := st.GetRaw(wantDigest)
	if !ok {
		t.Fatal("cold compute did not journal the cell")
	}
	if !bytes.Equal(raw, r1.Cell) {
		t.Fatalf("journal bytes differ from served cell:\n%s\n%s", raw, r1.Cell)
	}
	// ...and identical to what the batch per-job body (the exact
	// closure runCurves hands to sweep.MapCached) computes and the
	// store cache would marshal.
	pt, err := spec.ComputeCell(context.Background(), &sweep.Engine{}, sweep.NewWorker(0),
		core.Exact, "Stream", fp)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchBytes, r1.Cell) {
		t.Fatalf("served cell differs from batch-computed cell:\n%s\n%s", batchBytes, r1.Cell)
	}

	// The cold chain has the canonical batch shape plus the serve
	// prologue — opmprof reads it natively.
	coldNames := traceNames(events(), r1.Trace, 0)
	for _, ev := range []string{obs.EvServeRecv, obs.EvAdmit, obs.EvEnqueue, obs.EvDispatch,
		obs.EvStoreCommit, obs.EvDone} {
		if coldNames[ev] == 0 {
			t.Fatalf("cold chain missing %s (chain: %v)", ev, coldNames)
		}
	}

	// Acceptance (a): the repeat is a hot-set hit that bypasses the
	// journal and the pool. Counters and the trace chain both show it.
	watermark := maxSeq(events())
	storeBefore := st.Stats()
	r2 := decodeQuery(t, postQuery(t, h, "/v1/query", q))
	if r2.Source != "hot" {
		t.Fatalf("repeat source %q, want hot", r2.Source)
	}
	if !bytes.Equal(r2.Cell, r1.Cell) || r2.Digest != r1.Digest {
		t.Fatal("hot hit served different bytes or digest")
	}
	if hits := reg.Counter("serve/hits").Value(); hits != 1 {
		t.Fatalf("serve/hits = %d, want 1", hits)
	}
	if after := st.Stats(); after.Hits != storeBefore.Hits || after.Misses != storeBefore.Misses {
		t.Fatalf("hot hit touched the journal: %+v → %+v", storeBefore, after)
	}
	hotNames := traceNames(events(), r2.Trace, watermark)
	if hotNames[obs.EvServeRecv] != 1 || hotNames[obs.EvServeHot] != 1 || len(hotNames) != 2 {
		t.Fatalf("hot chain = %v, want exactly {serve/recv, serve/hot_hit}", hotNames)
	}

	// A fresh daemon over the same journal answers from the store
	// (promoting into its hot set) without computing.
	reg2 := obs.NewRegistry()
	tr2, events2 := newTracer(t)
	srv2, err := New(Config{Store: st, Registry: reg2, Tracer: tr2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r3 := decodeQuery(t, postQuery(t, srv2.Handler(), "/v1/query", q))
	if r3.Source != "store" || !bytes.Equal(r3.Cell, r1.Cell) {
		t.Fatalf("fresh daemon source %q, want store hit with identical bytes", r3.Source)
	}
	storeNames := traceNames(events2(), r3.Trace, 0)
	if storeNames[obs.EvEnqueue] != 0 || storeNames[obs.EvDispatch] != 0 {
		t.Fatalf("store hit reached the pool: %v", storeNames)
	}
	if reg2.Counter("serve/store_hits").Value() != 1 || reg2.Counter("serve/computed").Value() != 0 {
		t.Fatal("store hit miscounted or recomputed")
	}
}

// TestServeAnswersBatchJournaledCells proves the batch half of
// acceptance (b): cells journaled by a real opmbench figure run (fig12
// through harness.Get, on a four-point footprint grid) are store hits
// for the daemon at every footprint of the figure's grid,
// byte-for-byte.
func TestServeAnswersBatchJournaledCells(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	opt := harness.Options{Store: st, CurvePoints: 4, Workers: 2}
	exp, err := harness.Get("fig12") // Stream on Broadwell
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background(), opt); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{Store: st, Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	spec, err := harness.NewCurveSpec("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range spec.Footprints(opt) {
		q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kernel: "Stream", Footprint: fp}
		resp := decodeQuery(t, postQuery(t, h, "/v1/query", q))
		if resp.Source != "store" {
			t.Fatalf("fp %d: source %q, want store hit on the batch-journaled cell", fp, resp.Source)
		}
		if resp.GFlops <= 0 {
			t.Fatalf("fp %d: gflops %g", fp, resp.GFlops)
		}
		raw, ok := st.GetRaw(resp.Digest)
		if !ok || !bytes.Equal(raw, resp.Cell) {
			t.Fatalf("fp %d: served bytes differ from the journal", fp)
		}
	}
	if reg.Counter("serve/computed").Value() != 0 {
		t.Fatal("daemon recomputed cells the batch run had journaled")
	}
}

// TestServeOverloadRejects proves the 429 half of acceptance (c): past
// the burst with a zero-length wait queue, admission rejects with 429
// and a Retry-After hint.
func TestServeOverloadRejects(t *testing.T) {
	reg := obs.NewRegistry()
	classes := map[string]ClassConfig{"interactive": {Rate: 0.1, Burst: 1, Queue: 0}}
	srv, err := New(Config{Registry: reg, Classes: classes, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 1024, NB: 128}
	if w := postQuery(t, h, "/v1/query", q); w.Code != http.StatusOK {
		t.Fatalf("burst-admitted query status %d: %s", w.Code, w.Body)
	}

	q.N = 2048 // a different cell, so the hot set cannot answer it
	w := postQuery(t, h, "/v1/query", q)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429 (%s)", w.Code, w.Body)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	if reg.Counter("serve/rejected").Value() != 1 {
		t.Fatalf("serve/rejected = %d, want 1", reg.Counter("serve/rejected").Value())
	}
}

// TestServeGracefulDrainLosesNothing proves the drain half of
// acceptance (c): requests accepted before Drain — including ones
// still waiting in the admission queue — all complete with 200 and
// reach the journal; requests after Drain get 503.
func TestServeGracefulDrainLosesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Rate 5/s with burst 1 forces five of the six requests to queue,
	// so Drain provably overlaps waiting admissions.
	classes := map[string]ClassConfig{"interactive": {Rate: 5, Burst: 1, Queue: 16}}
	srv, err := New(Config{Store: st, Registry: reg, Classes: classes, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const n = 6
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM",
				N: 512 * (i + 1), NB: 128}
			codes <- postQuery(t, h, "/v1/query", q).Code
		}(i)
	}

	// Wait until every request is accepted (admitted or queued), then
	// drain while the queue is still paying out tokens.
	b := srv.adm.classes["interactive"]
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		waiting := b.waiting
		b.mu.Unlock()
		if reg.Counter("serve/admitted").Value()+int64(waiting) >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests never reached admission")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < n; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("accepted request lost to drain: status %d", c)
		}
	}
	if st.Len() != n {
		t.Fatalf("journal holds %d cells after drain, want all %d accepted requests", st.Len(), n)
	}

	// Once draining, new work is refused and health flips.
	q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 8192, NB: 128}
	if w := postQuery(t, h, "/v1/query", q); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query status %d, want 503", w.Code)
	}
	if w := getPath(t, h, "/v1/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", w.Code)
	}
}

// TestDrainInterruptedCancelsBase: when Drain's ctx expires with work
// still in flight, Drain returns an error, and the server refuses every
// later request with 503.
func TestDrainInterruptedCancelsBase(t *testing.T) {
	srv, err := New(Config{Registry: obs.NewRegistry(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.begin() {
		t.Fatal("begin refused before drain")
	}
	defer srv.done()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("interrupted drain returned nil error")
	}
	if srv.begin() {
		srv.done()
		t.Fatal("begin accepted work after an interrupted drain")
	}
	q := QueryRequest{Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 512, NB: 128}
	if w := postQuery(t, srv.Handler(), "/v1/query", q); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query after an interrupted drain: status %d, want 503", w.Code)
	}
}

// TestDrainCleanShutsPoolAndBase: an uncontested drain returns nil
// within its ctx.
func TestDrainCleanShutsPoolAndBase(t *testing.T) {
	srv, err := New(Config{Registry: obs.NewRegistry(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
}

// TestServeStrictBodies: a query body with anything but whitespace
// after its JSON value, or with a field the request type does not
// name, is refused with 400 before it is answered. That covers
// "estimator", a field the query API no longer has: every cell is
// exact.
func TestServeStrictBodies(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	dense := `{"platform":"broadwell","mode":"edram","kind":"GEMM","n":2048,"nb":256}`
	for name, c := range map[string]struct {
		body string
		code int
	}{
		"trailing text":      {dense + " this is not json", http.StatusBadRequest},
		"second value":       {dense + dense, http.StatusBadRequest},
		"unknown field":      {`{"platform":"broadwell","mode":"edram","kind":"GEMM","n":2048,"nb":256,"nbb":7}`, http.StatusBadRequest},
		"twin-first field":   {`{"platform":"broadwell","mode":"edram","kind":"GEMM","n":2048,"nb":256,"estimator":"twin-first"}`, http.StatusBadRequest},
		"exact field":        {`{"platform":"broadwell","mode":"edram","kind":"GEMM","n":2048,"nb":256,"estimator":"exact"}`, http.StatusBadRequest},
		"trailing newline":   {dense + "\n", http.StatusOK},
		"surrounding spaces": {" \t" + dense + " \r\n ", http.StatusOK},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", strings.NewReader(c.body)))
		if w.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", name, w.Code, c.code, w.Body)
		}
	}
}

// TestServeBadRequests pins the 400 surface: malformed shapes are
// rejected before touching admission or the pool. The removed async
// batch API and Prometheus rendering answer 404: /v1/query and
// /metrics are their one home.
func TestServeBadRequests(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for name, q := range map[string]QueryRequest{
		"unknown platform": {Platform: "vax", Mode: "ddr", Kernel: "Stream", Footprint: 1 << 20},
		"wrong mode":       {Platform: "broadwell", Mode: "flat", Kernel: "Stream", Footprint: 1 << 20},
		"no footprint":     {Platform: "broadwell", Mode: "ddr", Kernel: "Stream"},
		"both families":    {Platform: "broadwell", Mode: "ddr", Kernel: "Stream", Footprint: 1 << 20, Kind: "GEMM", N: 512, NB: 128},
		"neither family":   {Platform: "broadwell", Mode: "ddr"},
		"bad blocking":     {Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 128, NB: 512},
		"unknown class":    {Platform: "broadwell", Mode: "ddr", Kind: "GEMM", N: 512, NB: 128, Class: "vip"},
	} {
		if w := postQuery(t, h, "/v1/query", q); w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
	batch := `{"queries":[{"platform":"broadwell","mode":"ddr","kind":"GEMM","n":512,"nb":128}]}`
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/sweep", batch},
		{"GET", "/v1/jobs/job-1", ""},
		{"GET", "/metrics/prom", ""},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if w.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 (%s)", c.method, c.path, w.Code, w.Body)
		}
	}
	if w := getPath(t, h, "/v1/stats"); w.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", w.Code, w.Body)
	}
	if w := getPath(t, h, "/v1/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200 while serving", w.Code)
	}
}
