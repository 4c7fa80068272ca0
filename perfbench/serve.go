package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// serve-mixed: Broadwell Stream/FFT curve cells from 1 to 64 MB and
// dense cells of the fig grids, asked for through the daemon's handler
// by closed-loop clients. Every pass asks for each cell three times:
// twice before the server drains and its store reopens under a new
// server, once after. In a cold pass the first ask computes and commits
// the cell, the second is a hot-set hit and the third a store hit, so
// each of the daemon's three sources answers exactly one query per
// cell. This is the only workload with the hot set, store reads, journal
// replay, admission and routing on the path, and it puts cold commits
// beside hot and store reads.
//
// No recorded trace or test of the repository sets a query mix for the
// daemon, so the stream assumes none: the only free choice is the cell
// count of each kind. The curve cells are where a pass spends its host
// time; the dense cells give each cheap source enough latency samples.

// serveClients is the closed-loop client count: one per core. Each
// client sends its next query only after the previous one returns.
const serveClients = 2

type serveCell struct {
	kind   string // "sim" (curve) or "dense"
	client int
	body   []byte // the query, the same on every ask
}

type serveMixed struct {
	cells []serveCell
	// queries lists cell indices in send order; the server restarts
	// before queries[restart].
	queries []int
	restart int
	replay  replay
}

func newServeMixed(seed uint64, tiny bool) (runner, error) {
	r := newRand(seed, "serve-mixed")
	nCurve, nDense, curveHi := 3, 160, 64*mb
	if tiny {
		nCurve, nDense, curveHi = 1, 8, 2*mb
	}
	s := &serveMixed{}
	// Each client owns every other cell, so no cell is computed twice.
	add := func(kind string, q serve.QueryRequest) error {
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		s.cells = append(s.cells, serveCell{kind: kind, client: len(s.cells) % serveClients, body: body})
		return nil
	}
	spec, err := harness.NewCurveSpec("broadwell")
	if err != nil {
		return nil, err
	}
	// A curve cell holds every mode; the mode a query names only picks
	// the figures the daemon renders from it.
	modes := []string{"ddr", "edram"}
	for _, kernel := range []string{"Stream", "FFT"} {
		for i := 0; i < nCurve; i++ {
			fps, err := curvePair(r, spec, kernel, 1*mb, curveHi, i, nCurve)
			if err != nil {
				return nil, err
			}
			for _, fp := range fps {
				wl, err := spec.Workload(kernel, fp)
				if err != nil {
					return nil, err
				}
				s.replay.gens = append(s.replay.gens, genRec{plat: spec.Platform, wl: wl})
				q := serve.QueryRequest{Platform: "broadwell", Mode: modes[r.IntN(len(modes))], Kernel: kernel, Footprint: fp}
				if err := add("sim", q); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, m := range spec.Machines {
		s.replay.newsims = append(s.replay.newsims, m.Config())
	}
	dg, err := newDenseGrid(seed, false)
	if err != nil {
		return nil, err
	}
	// The daemon answers only tiles no larger than the matrix.
	var grid []core.DenseJob
	for _, j := range dg.(*denseGrid).jobs {
		if j.job.NB <= j.job.N {
			grid = append(grid, j.job)
		}
	}
	for _, gi := range r.Perm(len(grid))[:nDense] {
		j := grid[gi]
		s.replay.dense = append(s.replay.dense, j)
		q := serve.QueryRequest{Platform: j.Machine.Plat.Name, Mode: j.Machine.Mode.String(),
			Kind: j.Kind.String(), N: j.N, NB: j.NB}
		if err := add("dense", q); err != nil {
			return nil, err
		}
	}
	// Before the restart, both asks of every cell in one seeded order;
	// after it, every cell once in another.
	for ci := range s.cells {
		s.queries = append(s.queries, ci, ci)
	}
	r.Shuffle(len(s.queries), func(i, j int) { s.queries[i], s.queries[j] = s.queries[j], s.queries[i] })
	s.restart = len(s.queries)
	s.queries = append(s.queries, r.Perm(len(s.cells))...)
	return s, nil
}

func (s *serveMixed) workers() int { return serveClients }

func (s *serveMixed) pass(ctx context.Context, e *env) (*passOut, error) {
	return s.run(ctx, e, s.queries, s.restart)
}

// warmup asks for the first 20 dense cells the same three times through
// a fresh server pair.
func (s *serveMixed) warmup(ctx context.Context, e *env) error {
	var cells []int
	for ci, c := range s.cells {
		if c.kind == "dense" && len(cells) < 20 {
			cells = append(cells, ci)
		}
	}
	qs := append(append(append([]int(nil), cells...), cells...), cells...)
	_, err := s.run(ctx, e, qs, 2*len(cells))
	return err
}

// serveClasses keeps admission on every cold query but never throttles
// it: the workload measures the serving path, not the rate limit.
func serveClasses() map[string]serve.ClassConfig {
	c := serve.DefaultClasses()
	c["interactive"] = serve.ClassConfig{Rate: 1e6, Burst: 1 << 20, Queue: 64}
	return c
}

func (s *serveMixed) run(ctx context.Context, e *env, queries []int, restart int) (*passOut, error) {
	dir := e.storeDir()
	defer os.RemoveAll(dir)
	p := &passOut{levels: levelCounts{}, rep: &replay{}}
	p.rep.merge(&s.replay)
	answers := make([]answer, len(queries))
	for _, phase := range [][2]int{{0, restart}, {restart, len(queries)}} {
		var st *store.Store
		var err error
		e.tr.do(ctx, "store.open", func(context.Context) { st, err = store.Open(dir, nil) })
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		var srv *serve.Server
		e.tr.do(ctx, "serve.new", func(context.Context) {
			srv, err = serve.New(serve.Config{Store: st, Registry: reg, Workers: serveClients, Classes: serveClasses()})
		})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for qi := phase[0]; qi < phase[1]; qi++ {
					if s.cells[queries[qi]].client == c {
						e.m.tick(s.sliceUnit(queries[qi], qi))
						answers[qi] = s.query(ctx, e.tr, h, queries[qi], qi)
					}
				}
			}(c)
		}
		wg.Wait()
		e.tr.do(ctx, "serve.drain", func(ctx context.Context) { err = srv.Drain(ctx) })
		if err != nil {
			return nil, err
		}
		e.tr.do(ctx, "store.close", func(context.Context) { err = st.Close() })
		if err != nil {
			return nil, err
		}
		p.lines += addRegistryLevels(p.levels, reg)
	}
	p.answers = answers
	p.journalBytes = journalBytes(dir)
	return p, nil
}

// addRegistryLevels adds the memsim/<level>/<stat> counters the server's
// simulations recorded and returns the L1 accesses: the simulated line
// accesses. Every serve curve cell runs on Broadwell; the registry sums
// both modes.
func addRegistryLevels(lc levelCounts, reg *obs.Registry) uint64 {
	per := map[string]cache.Stats{}
	for name, v := range reg.Snapshot().Counters {
		parts := strings.Split(name, "/")
		if len(parts) != 3 || parts[0] != "memsim" || parts[1] == "traffic" {
			continue
		}
		st := per[parts[1]]
		switch parts[2] {
		case "accesses":
			st.Accesses = uint64(v)
		case "hits":
			st.Hits = uint64(v)
		case "misses":
			st.Misses = uint64(v)
		case "evictions":
			st.Evictions = uint64(v)
		case "writebacks":
			st.Writebacks = uint64(v)
		default:
			continue
		}
		per[parts[1]] = st
	}
	for level, st := range per {
		lc.add("broadwell/all", level, st)
	}
	return per["l1"].Accesses
}

// sliceUnit numbers query qi for meter.tick: a slice before every curve
// query, which takes milliseconds, and before every 32nd query.
func (s *serveMixed) sliceUnit(ci, qi int) (int, int) {
	if s.cells[ci].kind == "sim" {
		return 0, 1
	}
	return qi, 32
}

// query sends one request through the handler and times it.
func (s *serveMixed) query(ctx context.Context, t *tracer, h http.Handler, ci, qi int) answer {
	c := s.cells[ci]
	ctx = t.withCell(ctx, fmt.Sprintf("q%d/c%d", qi, ci))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(c.body))
	var start time.Time
	var lat time.Duration
	var id int
	t.do(ctx, "serve.query", func(ctx context.Context) {
		id, _ = ctx.Value(spanKey{}).(int)
		start = time.Now()
		h.ServeHTTP(rec, req.WithContext(ctx))
		lat = time.Since(start)
	})
	a := answer{start: start, lat: lat, kind: c.kind}
	if rec.Code != http.StatusOK {
		a.failed = true
		a.source = "rejected"
		fmt.Fprintf(os.Stderr, "perfbench: query %d: HTTP %d: %s", qi, rec.Code, rec.Body.String())
		return a
	}
	var resp struct {
		Source string          `json:"source"`
		Cell   json.RawMessage `json:"cell"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		a.failed = true
		return a
	}
	a.source, a.data = resp.Source, resp.Cell
	t.rename(id, "serve."+resp.Source)
	return a
}
