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
// promote into the hot set. Misses pass token-bucket admission control
// (per-class rates, bounded wait queue, 429 + Retry-After on overflow),
// then borrow the lowest-numbered idle one of a fixed set of
// persistent sweep workers, whose pooled simulators stay warm across
// requests, and compute on the request's own goroutine through
// sweep.Run — the runner batch sweeps use, with one circuit breaker
// per kernel family. Computed cells are journaled under the same
// digests the batch sweeps use, so the daemon and opmbench warm each
// other.
//
// Twin-first answering ("estimator": "twin-first") responds from the
// analytic twin within its calibrated error bound and enqueues the
// exact computation in the background; once the refinement commits,
// the same digest serves the exact value. Provisional answers live
// only in the hot set, flagged — the journal never aliases twin bytes
// under an exact digest (DESIGN.md §11).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/twin"
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
	// Policy is the retry/breaker policy cold computes run under. For
	// a daemon, set BreakerCooldown so tripped families recover.
	Policy *resilience.Policy
	// Workers is the persistent worker pool size (default 4).
	Workers int
	// HotSet is the LRU capacity in cells (default 4096).
	HotSet int
	// Classes overrides the admission classes (default
	// DefaultClasses).
	Classes map[string]ClassConfig
	// TwinMaxErr is the auto estimator's tolerance (default 0.10).
	TwinMaxErr float64
	// BaseContext is the root context background work — batch sweep
	// jobs and twin-first refinements — runs under. The server derives
	// a cancellable child from it, cancelled when Drain gives up, so an
	// interrupted drain never strands headless goroutines computing
	// forever. Nil means a process-lifetime root.
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

	estimators map[string]core.Estimator
	bounds     map[string]float64 // twin.Family → calibrated MAPE

	breakerMu sync.Mutex
	breakers  map[string]*resilience.Breaker // per kernel family

	refineMu sync.Mutex
	refining map[string]bool // exact digests with a refinement in flight

	jobs *jobTable

	drainMu  sync.RWMutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// base is the detached context background work (sweep jobs,
	// refinements) runs under; cancelBase fires when a drain is
	// interrupted so that work stops instead of leaking.
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
	maxErr := cfg.TwinMaxErr
	if maxErr <= 0 {
		maxErr = 0.10
	}
	auto, err := twin.Select("auto", maxErr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		st:  cfg.Store,
		reg: cfg.Registry,
		tr:  cfg.Tracer,
		eng: &sweep.Engine{Obs: cfg.Registry, Trace: cfg.Tracer, Policy: cfg.Policy},
		hot: newHotSet(cfg.HotSet),
		adm: adm,
		cat: newCatalog(),
		estimators: map[string]core.Estimator{
			"exact": core.Exact,
			"twin":  twin.Estimator{},
			"auto":  auto,
		},
		bounds:   map[string]float64{},
		breakers: map[string]*resilience.Breaker{},
		refining: map[string]bool{},
		jobs:     newJobTable(64),
		startNS:  nowNS(),
	}
	base := cfg.BaseContext
	if base == nil {
		base = context.Background() //opmlint:allow ctxflow — the daemon's process-lifetime root when the owner injects no BaseContext; Drain cancels the derived child
	}
	s.base, s.cancelBase = context.WithCancel(base)
	for fam, b := range twin.DefaultBounds() {
		s.bounds[fam] = b
	}
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
// 503 and every accepted request (including queued admissions, batch
// jobs, and background refinements) runs to completion. ctx bounds the
// wait. Idempotent.
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
		// base context so batch jobs and refinements running under it
		// stop at their next context check instead of computing
		// headless forever.
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
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
	writeJSON(w, http.StatusOK, resp)
}

// writeQueryError maps an answer error onto its status code.
func writeQueryError(w http.ResponseWriter, err error) {
	var over *OverloadError
	switch {
	case errors.As(err, &over):
		secs := int64(over.RetryAfter/time.Second) + 1
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		httpError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, resilience.ErrBreakerOpen):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, 499, err) // client went away mid-wait
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

// answer runs the full serving path for one request. The caller must
// hold a begin() slot.
func (s *Server) answer(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	start := nowNS()
	defer func() {
		s.observeClass(req.Class, time.Duration(nowNS()-start))
	}()
	estName := req.Estimator
	if estName == "" {
		estName = "exact"
	}
	twinFirst := estName == "twin-first"
	canonical := estName
	if twinFirst {
		canonical = "exact"
	}
	est, ok := s.estimators[canonical]
	if !ok {
		return nil, fmt.Errorf("serve: unknown estimator %q (want exact, twin, auto or twin-first)", estName)
	}
	c, err := s.cat.resolve(req, s.eng)
	if err != nil {
		return nil, err
	}
	digest := c.digestFor(est)
	traceID := harness.CellTraceID(digest)
	traceKey := c.expFor(est) + "/" + c.key
	s.tr.Emit(traceID, obs.EvServeRecv, traceKey, -1, 0, "query|"+req.Class)

	// Layer 1: the hot set. Hits never touch disk or the pool.
	lookStart := nowNS()
	if e, ok := s.hot.get(digest); ok {
		s.reg.Counter("serve/hits").Inc()
		s.tr.Emit(traceID, obs.EvServeHot, traceKey, -1, time.Duration(nowNS()-lookStart), e.estimator)
		return s.respond(c, digest, traceID, "hot", e)
	}
	s.reg.Counter("serve/misses").Inc()

	// Layer 2: the journal. Hits promote into the hot set.
	if data, ok := s.st.GetRaw(digest); ok {
		s.reg.Counter("serve/store_hits").Inc()
		e := hotEntry{data: data, estimator: canonical}
		s.hot.add(digest, e)
		s.tr.Emit(traceID, obs.EvStoreHit, traceKey, -1, time.Duration(nowNS()-lookStart), "serve")
		return s.respond(c, digest, traceID, "store", e)
	}

	// Twin-first: answer from the twin inside its calibrated bound and
	// refine to exact in the background.
	if twinFirst {
		if bound, ok := s.bounds[twin.Family(c.kernelName)]; ok {
			return s.answerTwinFirst(ctx, req, c, digest, traceID, traceKey, bound)
		}
		// No calibrated bound to honor — fall through to sync exact.
	}

	// Layers 3–5: admission, worker pool, compute.
	data, err := s.computeCell(ctx, c, est, digest, traceID, traceKey, req.Class)
	if err != nil {
		return nil, err
	}
	e := hotEntry{data: data, estimator: canonical}
	s.hot.add(digest, e)
	return s.respond(c, digest, traceID, "computed", e)
}

// respond renders a response from a cell's stored bytes.
func (s *Server) respond(c *cell, digest, traceID, source string, e hotEntry) (*QueryResponse, error) {
	resp := &QueryResponse{
		Digest:    digest,
		Trace:     traceID,
		Source:    source,
		Estimator: e.estimator,
		Refined:   !e.provisional,
		Cell:      json.RawMessage(e.data),
	}
	if e.provisional {
		resp.ErrBound = e.errBound
	}
	if err := c.render(e.data, resp); err != nil {
		s.reg.Counter("serve/errors").Inc()
		return nil, err
	}
	return resp, nil
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
// under the resilience policy, journal, and return the cell's canonical
// bytes. It emits the same enqueue→dispatch→done chain shape batch
// sweeps emit, so opmprof reads serve chains natively.
func (s *Server) computeCell(ctx context.Context, c *cell, est core.Estimator, digest, traceID, traceKey, class string) ([]byte, error) {
	if err := s.admit(ctx, class, traceID, traceKey); err != nil {
		return nil, err
	}
	s.tr.Emit(traceID, obs.EvEnqueue, traceKey, -1, 0, "serve")

	var (
		data []byte
		err  error
	)
	runErr := s.pool.run(ctx, func(w *sweep.Worker) {
		busy := nowNS()
		s.tr.Emit(traceID, obs.EvDispatch, traceKey, w.ID(), 0, "")
		cctx := obs.WithTraceContext(ctx, s.tr, traceID, traceKey, w.ID())
		var v any
		v, err = s.evalWithPolicy(cctx, c, est, w, digest)
		if err != nil {
			s.tr.Emit(traceID, obs.EvError, traceKey, w.ID(), 0, err.Error())
			return
		}
		data, err = json.Marshal(v)
		if err != nil {
			err = fmt.Errorf("serve: encoding cell: %w", err)
			return
		}
		if s.st != nil {
			commit := nowNS()
			//opmlint:allow ctxflow — a journal append must complete once begun; a frame torn by cancellation is exactly the corruption the store guards against
			if perr := s.st.Put(digest, c.expFor(est), c.key, json.RawMessage(data)); perr != nil {
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
		return nil, runErr
	}
	if err != nil {
		s.reg.Counter("serve/errors").Inc()
		return nil, err
	}
	s.reg.Counter("serve/computed").Inc()
	return data, nil
}

// evalWithPolicy evaluates one cell through the sweep engine's job
// runner (sweep.Run), exactly as a batch sweep runs each job: panic
// containment, the "job" chaos point, per-attempt deadline, retry with
// backoff, and the kernel family's circuit breaker. The cell digest is
// the job key.
func (s *Server) evalWithPolicy(ctx context.Context, c *cell, est core.Estimator, w *sweep.Worker, digest string) (any, error) {
	family := twin.Family(c.kernelName)
	v, err := sweep.Run(ctx, s.eng, s.breaker(family), w, digest, est, c.compute)
	if errors.Is(err, resilience.ErrBreakerOpen) {
		err = fmt.Errorf("serve: family %s: %w", family, err)
	}
	return v, err
}

// breaker returns (creating if needed) the family's circuit breaker.
// Nil when the policy disables breaking — resilience.Breaker is
// nil-safe.
func (s *Server) breaker(family string) *resilience.Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	br, ok := s.breakers[family]
	if !ok {
		br = s.eng.Policy.NewBreaker()
		s.breakers[family] = br
	}
	return br
}

// answerTwinFirst serves the provisional twin answer inline and
// enqueues the exact refinement. The twin value is journaled under its
// own twin digest (it is a legitimate twin cell); only the hot set
// holds it under the exact digest, flagged provisional.
func (s *Server) answerTwinFirst(ctx context.Context, req QueryRequest, c *cell, exactDigest, traceID, traceKey string, bound float64) (*QueryResponse, error) {
	if err := s.admit(ctx, req.Class, traceID, traceKey); err != nil {
		return nil, err
	}
	twinEst := s.estimators["twin"]
	twinDigest := c.digestFor(twinEst)

	// The twin is analytic — microseconds, no pooled simulator — so it
	// runs inline on the request goroutine.
	data, ok := s.st.GetRaw(twinDigest)
	if !ok {
		cctx := obs.WithTraceContext(ctx, s.tr, traceID, traceKey, -1)
		v, err := c.compute(cctx, nil, twinEst)
		if err != nil {
			s.reg.Counter("serve/errors").Inc()
			return nil, err
		}
		data, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("serve: encoding twin cell: %w", err)
		}
		if s.st != nil {
			//opmlint:allow ctxflow — a journal append must complete once begun; a frame torn by cancellation is exactly the corruption the store guards against
			if perr := s.st.Put(twinDigest, c.expFor(twinEst), c.key, json.RawMessage(data)); perr != nil {
				s.reg.Counter("serve/commit_errors").Inc()
			}
		}
	}
	s.reg.Counter("serve/computed").Inc()
	e := hotEntry{data: data, estimator: "twin", provisional: true, errBound: bound}
	s.hot.add(exactDigest, e)
	s.spawnRefinement(req, c, exactDigest, traceID, traceKey)
	return s.respond(c, exactDigest, traceID, "computed", e)
}

// spawnRefinement starts (at most one) background exact computation
// for an exact digest. The refinement holds a drain slot, admits under
// the "refine" class, computes through the pool, journals under the
// exact digest, and replaces the provisional hot-set entry — after
// which the same digest serves the exact value.
func (s *Server) spawnRefinement(req QueryRequest, c *cell, exactDigest, traceID, traceKey string) {
	s.refineMu.Lock()
	if s.refining[exactDigest] {
		s.refineMu.Unlock()
		return
	}
	s.refining[exactDigest] = true
	s.refineMu.Unlock()
	if !s.begin() {
		// Draining: the provisional answer stands; no refinement is
		// accepted (and none was promised to the caller).
		s.refineMu.Lock()
		delete(s.refining, exactDigest)
		s.refineMu.Unlock()
		return
	}
	go func() {
		defer s.done()
		defer func() {
			s.refineMu.Lock()
			delete(s.refining, exactDigest)
			s.refineMu.Unlock()
		}()
		start := nowNS()
		// The request that triggered the refinement may be long gone;
		// the refinement runs under the server's base context instead,
		// so an interrupted Drain can still cancel it.
		data, err := s.computeCell(s.base, c, s.estimators["exact"],
			exactDigest, traceID, traceKey, "refine")
		s.observeClass("refine", time.Duration(nowNS()-start))
		if err != nil {
			s.reg.Counter("serve/refine_errors").Inc()
			return
		}
		s.hot.add(exactDigest, hotEntry{data: data, estimator: "exact"})
		s.reg.Counter("serve/refinements").Inc()
		s.tr.Emit(traceID, obs.EvRefine, traceKey, -1, time.Duration(nowNS()-start), "committed")
	}()
}

// WaitRefinements blocks until no refinement is in flight — a test
// and shutdown hook (Drain also waits for them via the inflight
// group).
func (s *Server) WaitRefinements(ctx context.Context) error {
	for {
		s.refineMu.Lock()
		n := len(s.refining)
		s.refineMu.Unlock()
		if n == 0 {
			return nil
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return err
		}
	}
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
