package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// batchWorkers is the sweep pool size of the batch workloads: the
// benchmark machine has two cores, and more workers than cores would
// measure the scheduler instead of the pipeline.
const batchWorkers = 2

// newRand returns the seeded input stream of one workload.
func newRand(seed uint64, workload string) *rand.Rand {
	var salt uint64 = 0x9e3779b97f4a7c15
	for _, c := range workload {
		salt = salt*31 + uint64(c)
	}
	return rand.New(rand.NewPCG(seed, salt))
}

// logUniform draws from [lo, hi) uniformly in log space.
func logUniform(r *rand.Rand, lo, hi int64) int64 {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	return int64(math.Exp(l + r.Float64()*(h-l)))
}

// stratum draws footprint i of n from [lo, hi): log-uniform within the
// i-th of n equal log-width strata, so a pass always spans the whole
// range and its total work barely moves from seed to seed.
func stratum(r *rand.Rand, lo, hi int64, i, n int) int64 {
	ratio := float64(hi) / float64(lo)
	a := float64(lo) * math.Pow(ratio, float64(i)/float64(n))
	b := float64(lo) * math.Pow(ratio, float64(i+1)/float64(n))
	return logUniform(r, int64(a), int64(b))
}

// cellStats is what one cell's job records beside its result: its
// latency, its exact cache counts and, for the traced run, what the
// per-layer replays need.
type cellStats struct {
	start  time.Time
	lat    time.Duration
	lines  uint64
	levels []levelStat
	rep    replay
}

type levelStat struct {
	machine string // "<platform>/<mode>"
	ls      memsim.LevelStats
}

// collectSim records the counts of the cell that just ran on sim:
// RunOn resets the simulator first, so its statistics are exactly this
// cell's. The first level of both platforms is L1, so its accesses
// are the cell's simulated line accesses.
func (s *cellStats) collectSim(m *core.Machine, sim *memsim.Sim, wl trace.Workload) error {
	levels := sim.LevelStats()
	for _, ls := range levels {
		s.levels = append(s.levels, levelStat{m.Label(), ls})
	}
	if len(levels) > 0 {
		s.lines += levels[0].Stats.Accesses
	}
	props, err := m.WorkloadProps(wl)
	if err != nil {
		return err
	}
	s.rep.evals = append(s.rep.evals, evalRec{cfg: m.Config(), traffic: sim.Traffic(), props: props})
	return nil
}

// seenKey marks in a sweep worker's pool that the worker has built the
// simulator for a configuration.
type seenKey struct{ cfg memsim.Config }

// pooledSim returns the worker's simulator for m, timing its
// construction as memsim.newsim when this call builds it.
func pooledSim(ctx context.Context, t *tracer, w *sweep.Worker, m *core.Machine, s *cellStats) (*memsim.Sim, error) {
	first := false
	if _, err := w.Get(seenKey{m.Config()}, func() (any, error) { first = true; return true, nil }); err != nil {
		return nil, err
	}
	if !first {
		return m.PooledSim(w)
	}
	s.rep.newsims = append(s.rep.newsims, m.Config())
	var sim *memsim.Sim
	var err error
	t.do(ctx, "memsim.newsim", func(context.Context) { sim, err = m.PooledSim(w) })
	return sim, err
}

// cellCache is the sweep.Cache every batch workload commits through: a
// fresh store.Store addressed by harness.CellDigest, the layout opmbench
// and the serving daemon share, so the journal holds what an opmbench
// run of the same cells would hold.
type cellCache[J, R any] struct {
	st      *store.Store
	tr      *tracer
	cfgHash string
	family  func(J) string
	key     func(J) string
	cell    func(J) string
	// tick, when set, runs before each lookup (meter.tick).
	tick func(J)
	errs atomic.Int64
}

func (c *cellCache[J, R]) digest(j J) string {
	return harness.CellDigest(core.Exact, c.family(j), c.cfgHash, c.key(j))
}

// Lookup consults the store. Every pass starts from an empty store, so
// it always misses; it runs because an opmbench sweep runs it.
func (c *cellCache[J, R]) Lookup(j J) (R, bool) {
	if c.tick != nil {
		c.tick(j)
	}
	ctx := c.tr.withCell(context.Background(), c.cell(j))
	var (
		d   string
		r   R
		hit bool
		err error
	)
	c.tr.do(ctx, "bench.lookup", func(ctx context.Context) {
		c.tr.do(ctx, "harness.key", func(context.Context) { d = c.digest(j) })
		c.tr.do(ctx, "store.get", func(context.Context) { hit, err = c.st.Get(d, &r) })
	})
	if err != nil || !hit {
		var zero R
		return zero, false
	}
	return r, true
}

// Commit journals one computed cell; a failed commit counts as a failed
// operation of the pass.
func (c *cellCache[J, R]) Commit(j J, r R) {
	ctx := c.tr.withCell(context.Background(), c.cell(j))
	var d string
	var err error
	c.tr.do(ctx, "bench.commit", func(ctx context.Context) {
		c.tr.do(ctx, "harness.key", func(context.Context) { d = c.digest(j) })
		c.tr.do(ctx, "store.put", func(context.Context) {
			err = c.st.Put(d, harness.CellFamilyID(core.Exact, c.family(j)), c.key(j), r)
		})
	})
	if err != nil {
		c.errs.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: commit %s: %v\n", c.cell(j), err)
	}
}

// runBatch sweeps jobs through sweep.MapCached on a fresh store, as
// opmbench does on a cold run, and returns the results in submission
// order. A failed job leaves its result's failed flag set; only an
// infrastructure error (the store cannot open) fails the pass.
func runBatch[J, R any](ctx context.Context, e *env, jobs []J, c *cellCache[J, R],
	fn func(ctx context.Context, w *sweep.Worker, j J) (R, error)) ([]R, []bool, int64, error) {
	dir := e.storeDir()
	defer os.RemoveAll(dir)
	var err error
	e.tr.do(ctx, "store.open", func(context.Context) { c.st, err = store.Open(dir, nil) })
	if err != nil {
		return nil, nil, 0, err
	}
	c.tr = e.tr
	eng := &sweep.Engine{Workers: batchWorkers}
	var res []R
	var mapErr error
	e.tr.do(ctx, "sweep.map", func(ctx context.Context) {
		res, mapErr = sweep.MapCached(ctx, eng, jobs, c, fn)
	})
	e.tr.do(ctx, "store.close", func(context.Context) { err = c.st.Close() })
	if err != nil {
		return nil, nil, 0, err
	}
	failed := make([]bool, len(jobs))
	if mapErr != nil {
		errs, ok := mapErr.(sweep.Errors)
		if !ok {
			return nil, nil, 0, mapErr
		}
		for _, je := range errs {
			failed[je.Index] = true
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", je)
		}
	}
	if c.errs.Load() > 0 && len(jobs) > 0 {
		failed[0] = true
	}
	return res, failed, journalBytes(dir), nil
}

// journalBytes sums the store's files other than its index.
func journalBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if e.Name() == "index.json" || e.IsDir() {
			continue
		}
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// assemble turns a batch's results and per-cell stats into the pass
// output, in submission order.
func assemble[R any](res []R, failed []bool, stats []cellStats, kind string, journal int64) *passOut {
	p := &passOut{levels: levelCounts{}, journalBytes: journal, rep: &replay{}}
	for i := range res {
		p.answers = append(p.answers, answer{val: res[i], start: stats[i].start, lat: stats[i].lat, source: "computed", kind: kind, failed: failed[i]})
		p.lines += stats[i].lines
		for _, l := range stats[i].levels {
			p.levels.add(l.machine, l.ls.Level, l.ls.Stats)
		}
		p.rep.merge(&stats[i].rep)
	}
	return p
}
