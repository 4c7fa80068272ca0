// Package serve is the long-running query daemon over the paper's
// cell space (cmd/opmserve): "what does kernel K at footprint F cost
// on platform P in OPM mode X?" answered at production latency. The
// request path is layered (DESIGN.md §13):
//
//	hot set  →  journal  →  admission  →  worker pool  →  compute
//
// An in-memory LRU hot set keyed by store content digests sits in
// front of the journal — hits serve the exact bytes a batch run
// journaled and never touch disk or the worker pool. Journal hits
// promote into the hot set. Each entry holds, beside the bytes, the
// fields an answer reads, taken from a computed cell's value or
// decoded once at promotion, so a hit decodes nothing and an answer
// writes the journaled bytes verbatim. Misses pass token-bucket
// admission control (per-class rates, bounded wait queue, 429 +
// Retry-After on overflow), then borrow the lowest-numbered idle one
// of a fixed set of persistent sweep workers, whose pooled simulators
// stay warm across requests, and compute on the request's own
// goroutine through sweep.Run — the runner batch sweeps use. Computed
// cells are encoded once and journaled under the same digests the
// batch sweeps use, so the daemon and opmbench warm each other. Every
// cell is the exact one (core.Exact): a cold query waits for its
// computation.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Config assembles a Server. Zero values select sane defaults; only
// Store is meaningfully optional (a store-less daemon computes every
// cold query and remembers it only in the hot set).
type Config struct {
	// Store is the persistent result journal (nil = memory only).
	Store *store.Store
	// Registry receives serve metrics (nil = telemetry off).
	Registry *obs.Registry
	// Tracer records per-request causal chains that join batch job
	// chains on the same cells (nil = tracing off).
	Tracer *obs.Tracer
	// Workers is the persistent worker pool size (default 4).
	Workers int
	// HotSet is the LRU capacity in cells (default 4096).
	HotSet int
	// Classes overrides the admission classes (default
	// DefaultClasses).
	Classes map[string]ClassConfig
	// BaseContext is the root context async sweep jobs run under. The
	// server derives a cancellable child from it, cancelled when Drain
	// gives up, so an interrupted drain never strands headless
	// goroutines computing forever. Nil means a process-lifetime root.
	BaseContext context.Context
}

// Server is the daemon: an http.Handler plus the serving layers.
type Server struct {
	st   *store.Store
	reg  *obs.Registry
	tr   *obs.Tracer
	eng  *sweep.Engine
	hot  *hotSet
	adm  *admission
	pool *workerPool
	cat  *catalog

	jobs *jobTable

	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// base is the detached context async sweep jobs run under;
	// cancelBase fires when a drain is interrupted so that work stops
	// instead of leaking.
	base       context.Context
	cancelBase context.CancelFunc

	startNS int64
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	adm, err := newAdmission(cfg.Classes)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	s := &Server{
		st:      cfg.Store,
		reg:     cfg.Registry,
		tr:      cfg.Tracer,
		eng:     &sweep.Engine{Obs: cfg.Registry, Trace: cfg.Tracer},
		hot:     newHotSet(cfg.HotSet),
		adm:     adm,
		cat:     newCatalog(),
		jobs:    newJobTable(64),
		startNS: nowNS(),
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background() //opmlint:allow ctxflow — the daemon's process-lifetime root when the owner injects no BaseContext; Drain cancels the derived child
	}
	s.base, s.cancelBase = context.WithCancel(base)
	// Pre-register every class's SLO histogram so /metrics/prom carries
	// the full class roster from the first scrape, not on first traffic.
	for _, name := range adm.names() {
		s.reg.Histogram("serve/latency/" + name) //opmlint:allow counternames — class names are the closed admission-config set validated by newAdmission
	}
	s.pool = newWorkerPool(workers)
	return s, nil
}

// observeClass records one request's end-to-end latency in its
// admission class's SLO histogram. Unknown classes are dropped rather
// than minting metric names from client input — hot-set hits skip
// admission, so a typo'd class can reach here without being rejected.
func (s *Server) observeClass(class string, d time.Duration) {
	if !s.adm.has(class) {
		return
	}
	s.reg.Histogram("serve/latency/" + class).Observe(d) //opmlint:allow counternames — the class set is closed server configuration, validated by newAdmission
}

func nowNS() int64 {
	return time.Now().UnixNano() //opmlint:allow determinism — serving latency and uptime are telemetry, never inputs to results
}

// Handler returns the daemon's HTTP mux: the v1 API plus the obs
// metrics endpoints, so one listener serves queries and scrapes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/query", s.timed("serve/latency/query", s.handleQuery))
	mux.Handle("POST /v1/sweep", s.timed("serve/latency/sweep", s.handleSweep))
	mux.Handle("GET /v1/jobs/{id}", s.timed("serve/latency/jobs", s.handleJob))
	mux.Handle("GET /v1/healthz", s.timed("serve/latency/healthz", s.handleHealthz))
	mux.Handle("GET /v1/stats", s.timed("serve/latency/stats", s.handleStats))
	mux.Handle("GET /metrics", obs.MetricsHandler(s.reg, nil))
	mux.Handle("GET /metrics/prom", obs.PromHandler(s.reg))
	return mux
}

// timed wraps a handler with its route's latency histogram.
func (s *Server) timed(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := nowNS()
		h(w, r)
		s.reg.Histogram(name).Observe(time.Duration(nowNS() - start)) //opmlint:allow counternames — route histogram names are the closed serve/latency/* set passed by Handler
	})
}

// begin registers one unit of accepted work against graceful drain.
// It returns false — and the caller must reject with 503 — once
// draining has begun. Accepted work is never lost: Drain waits for
// every begin to be balanced by done.
func (s *Server) begin() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) done() { s.inflight.Done() }

// Drain gracefully shuts serving down: new requests are rejected with
// 503 and every accepted request (including queued admissions and
// async sweep jobs) runs to completion. ctx bounds the wait.
// Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	first := !s.draining.Load()
	s.draining.Store(true)
	s.drainMu.Unlock()
	if !first {
		return nil
	}
	doneC := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(doneC)
	}()
	select {
	case <-doneC:
	case <-ctx.Done():
		// Giving up on the wait must not strand the work: cancel the
		// base context so sweep jobs running under it stop at their
		// next context check instead of computing headless forever.
		s.cancelBase()
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	}
	s.cancelBase()
	return nil
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleQuery answers one cell.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.begin() {
		httpError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	defer s.done()
	var req QueryRequest
	if err := decodeBody(r.Body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: decoding query: %w", err))
		return
	}
	if req.Class == "" {
		req.Class = "interactive"
	}
	resp, err := s.answer(r.Context(), req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeQuery(w, &resp)
}

// requestError is an answer error the request itself caused: a query
// the catalog cannot resolve, or an unknown admission class.
type requestError struct{ err error }

func (e *requestError) Error() string { return e.err.Error() }
func (e *requestError) Unwrap() error { return e.err }

// writeQueryError maps an answer error onto its status code. Errors
// the request caused answer 400; the daemon's own failures (a compute
// that errs, panics or fails the result gate, or a journaled cell that
// does not decode) answer 500.
func writeQueryError(w http.ResponseWriter, err error) {
	var (
		over *OverloadError
		bad  *requestError
	)
	switch {
	case errors.As(err, &over):
		secs := int64(over.RetryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, 499, err) // client went away mid-wait
	case errors.As(err, &bad):
		httpError(w, http.StatusBadRequest, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}

// answer runs the full serving path for one request. The caller must
// hold a begin() slot.
func (s *Server) answer(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	start := nowNS()
	defer func() {
		s.observeClass(req.Class, time.Duration(nowNS()-start))
	}()
	c, err := s.cat.resolve(req, s.eng)
	if err != nil {
		return QueryResponse{}, &requestError{err}
	}
	digest := c.digest()
	traceID := harness.CellTraceID(digest)
	traceKey := c.family + "/" + c.key
	s.tr.Emit(traceID, obs.EvServeRecv, traceKey, -1, 0, "query|"+req.Class)

	// Layer 1: the hot set. Hits never touch disk or the pool, and
	// decode nothing.
	lookStart := nowNS()
	if e, ok := s.hot.get(digest); ok {
		s.reg.Counter("serve/hits").Inc()
		s.tr.Emit(traceID, obs.EvServeHot, traceKey, -1, time.Duration(nowNS()-lookStart), "")
		return c.response(digest, traceID, "hot", e), nil
	}
	s.reg.Counter("serve/misses").Inc()

	// Layer 2: the journal. A hit decodes its view once, here, and
	// promotes into the hot set; a cell that does not decode is not
	// cached.
	if data, ok := s.st.GetRaw(digest); ok {
		s.reg.Counter("serve/store_hits").Inc()
		s.tr.Emit(traceID, obs.EvStoreHit, traceKey, -1, time.Duration(nowNS()-lookStart), "serve")
		view, err := c.view(nil, data)
		if err != nil {
			s.reg.Counter("serve/errors").Inc()
			return QueryResponse{}, err
		}
		e := hotEntry{data: data, view: view}
		s.hot.add(digest, e)
		return c.response(digest, traceID, "store", e), nil
	}

	// Layers 3–5: admission, worker pool, compute.
	e, err := s.computeCell(ctx, c, digest, traceID, traceKey, req.Class)
	if err != nil {
		return QueryResponse{}, err
	}
	s.hot.add(digest, e)
	return c.response(digest, traceID, "computed", e), nil
}

// admit passes one request through its class's token bucket, emitting
// the admit/reject trace events and counters.
func (s *Server) admit(ctx context.Context, class, traceID, traceKey string) error {
	wait, err := s.adm.acquire(ctx, class)
	if err != nil {
		var over *OverloadError
		if errors.As(err, &over) {
			s.reg.Counter("serve/rejected").Inc()
			s.tr.Emit(traceID, obs.EvReject, traceKey, -1, 0, class)
		}
		return err
	}
	s.reg.Counter("serve/admitted").Inc()
	s.tr.Emit(traceID, obs.EvAdmit, traceKey, -1, wait, class)
	return nil
}

// computeCell runs the admitted cold path: borrow a worker, evaluate
// through sweep.Run (panic containment, sweep/job_panics), encode the
// value once, build its view from the value, journal the bytes, and
// return both. It emits the same enqueue→dispatch→done chain shape
// batch sweeps emit, so opmprof reads serve chains natively.
func (s *Server) computeCell(ctx context.Context, c *cell, digest, traceID, traceKey, class string) (hotEntry, error) {
	if err := s.admit(ctx, class, traceID, traceKey); err != nil {
		return hotEntry{}, err
	}
	s.tr.Emit(traceID, obs.EvEnqueue, traceKey, -1, 0, "serve")

	var (
		e   hotEntry
		err error
	)
	runErr := s.pool.run(ctx, func(w *sweep.Worker) {
		busy := nowNS()
		s.tr.Emit(traceID, obs.EvDispatch, traceKey, w.ID(), 0, "")
		cctx := obs.WithTraceContext(ctx, s.tr, traceID, traceKey, w.ID())
		var v any
		v, err = sweep.Run(cctx, s.eng, w, c, func(ctx context.Context, w *sweep.Worker, c *cell) (any, error) {
			return c.compute(ctx, w)
		})
		if err != nil {
			s.tr.Emit(traceID, obs.EvError, traceKey, w.ID(), 0, err.Error())
			return
		}
		if e.data, err = json.Marshal(v); err != nil {
			err = fmt.Errorf("serve: encoding cell: %w", err)
			return
		}
		if e.view, err = c.view(v, e.data); err != nil {
			return
		}
		if s.st != nil {
			commit := nowNS()
			//opmlint:allow ctxflow — a journal append must complete once begun; a frame torn by cancellation is exactly the corruption the store guards against
			if perr := s.st.Put(digest, c.family, c.key, json.RawMessage(e.data)); perr != nil {
				// A failed checkpoint must slow serving down, never
				// kill it — same contract as the batch sweeps.
				s.reg.Counter("serve/commit_errors").Inc()
			} else {
				s.tr.Emit(traceID, obs.EvStoreCommit, traceKey, w.ID(), time.Duration(nowNS()-commit), "serve")
			}
		}
		s.tr.Emit(traceID, obs.EvDone, traceKey, w.ID(), time.Duration(nowNS()-busy), "")
	})
	if runErr != nil {
		// Cancelled while waiting for a worker: the closure did not run
		// and nothing was dispatched or journaled.
		s.reg.Counter("serve/errors").Inc()
		return hotEntry{}, runErr
	}
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		return hotEntry{}, err
	}
	s.reg.Counter("serve/computed").Inc()
	return e, nil
}

// handleHealthz reports liveness; a draining daemon answers 503 so
// load balancers stop sending traffic before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleStats reports the serving posture: cache occupancy, pool
// shape, uptime, and job counts. Detailed counters live on /metrics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"uptime_seconds": float64(nowNS()-s.startNS) / 1e9,
		"draining":       s.Draining(),
		"hot_set": map[string]any{
			"entries": s.hot.len(),
			"cap":     s.hot.cap,
		},
		"workers": s.pool.size(),
		"busy":    s.pool.busy(),
		"jobs":    s.jobs.counts(),
	}
	if s.st != nil {
		st := s.st.Stats()
		stats["store"] = map[string]any{
			"live": s.st.Len(), "hits": st.Hits, "misses": st.Misses,
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

// decodeBody decodes a request body into v strictly: a field v does
// not name, or anything but whitespace after the one JSON value, is an
// error, so a misspelt field or text left after the body is refused
// instead of answered as some other cell.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// queryBufs pools the buffers writeQuery builds answers in.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledQuery caps the buffer writeQuery returns to the pool, so one
// outsized cell does not pin its buffer.
const maxPooledQuery = 64 << 10

// writeQuery writes a /v1/query 200 answer: the bytes
// writeJSON(w, http.StatusOK, resp) writes, built in a pooled buffer
// with no encoding/json pass over the cell.
func writeQuery(w http.ResponseWriter, resp *QueryResponse) {
	bp := queryBufs.Get().(*[]byte)
	b := appendQuery((*bp)[:0], resp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) //opmlint:allow errdiscard — the status line is already committed; a write error means the client hung up and there is no channel left to report on
	if cap(b) <= maxPooledQuery {
		*bp = b
		queryBufs.Put(bp)
	}
}

// appendQuery appends the JSON line json.Encoder writes for r with
// SetEscapeHTML(false): the head fields in order, the omitempty ones
// left out at zero, floats in encoding/json's format, then the cell
// bytes verbatim and a newline. The encoder would compact the cell,
// which leaves json.Marshal output, the only cell bytes the daemon
// holds, as it is. The strings are written unescaped, as the digest and
// trace ID are hex and the source one of three words, and the floats
// are finite: the result gate refuses a non-finite result, and JSON
// holds none.
func appendQuery(b []byte, r *QueryResponse) []byte {
	b = append(b, `{"digest":"`...)
	b = append(b, r.Digest...)
	b = append(b, `","trace":"`...)
	b = append(b, r.Trace...)
	b = append(b, `","source":"`...)
	b = append(b, r.Source...)
	b = append(b, `","gflops":`...)
	b = appendFloat(b, r.GFlops)
	if r.AppGBs != 0 {
		b = append(b, `,"app_gbs":`...)
		b = appendFloat(b, r.AppGBs)
	}
	if r.Footprint != 0 {
		b = append(b, `,"footprint_bytes":`...)
		b = strconv.AppendInt(b, r.Footprint, 10)
	}
	b = append(b, `,"cell":`...)
	b = append(b, r.Cell...)
	return append(b, "}\n"...)
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' format, or in 'e' format
// with its exponent unpadded (1e-7, not 1e-07) below 1e-6 or from 1e21
// in magnitude.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) //opmlint:allow errdiscard — the status line is already committed; an encode error means the client hung up and there is no channel left to report on
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
