package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// BenchmarkServeHotPath measures the full request path of a hot-set
// hit — mux, decode, catalog resolve, digest, LRU lookup, response
// write — which must stay sub-millisecond. The single warm-up request
// computes the cell; every timed iteration is a hot hit.
func BenchmarkServeHotPath(b *testing.B) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	body := []byte(`{"platform":"broadwell","mode":"edram","kind":"GEMM","n":2048,"nb":256}`)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", w.Code, w.Body)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if reg.Counter("serve/hits").Value() < int64(b.N) {
		b.Fatalf("hot path missed: %d hits for %d iterations",
			reg.Counter("serve/hits").Value(), b.N)
	}
}

// BenchmarkServeColdDense measures a cold dense query through the
// handler: each op asks for a dense cell no earlier op asked for, so
// it misses the hot set and the journal, passes admission (never
// throttled here), borrows a worker, evaluates the analytic cell,
// encodes it, journals it into a store in a temporary directory and
// writes the answer.
func BenchmarkServeColdDense(b *testing.B) {
	reg := obs.NewRegistry()
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	classes := DefaultClasses()
	classes["interactive"] = ClassConfig{Rate: 1e9, Burst: 1 << 30, Queue: 64}
	srv, err := New(Config{Store: st, Registry: reg, Workers: 1, Classes: classes})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = fmt.Appendf(nil, `{"platform":"broadwell","mode":"edram","kind":"GEMM","n":%d,"nb":256}`, 1024+i)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for _, body := range bodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	if n := reg.Counter("serve/computed").Value(); n != int64(b.N) {
		b.Fatalf("%d cells computed for %d cold queries", n, b.N)
	}
}
