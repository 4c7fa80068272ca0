package harness

import (
	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The store hooks below address every memoized sweep result by the
// four-part digest of DESIGN.md §8:
//
//	Digest(core.ModelVersion, configHash, sweepID, jobKey)
//
// configHash fingerprints the platform+mode simulator configurations
// a job runs against (obs.Hash over memsim.Config values, which are
// pure scalars/arrays, plus the platform scale where the job uses it
// directly); sweepID names the sweep *family* rather than the figure
// — table4 re-running fig9's SpMV suite, or fig1 re-sampling fig7's
// GEMM grid, hits the same entries. For sweeps whose jobs carry their
// own machine (the dense grids), the per-job config hash folds into
// the job key and configHash is empty — all four ingredients are
// still hashed.

// storeCache adapts a Store to one sweep's Cache hook.
type storeCache[J, R any] struct {
	st      *store.Store
	force   bool
	sweepID string
	cfgHash string
	key     func(J) string
}

// cacheFor builds the sweep cache hook for one experiment sweep, or
// nil (no memoization) when the options carry no store.
func cacheFor[J, R any](opt Options, sweepID, cfgHash string, key func(J) string) sweep.Cache[J, R] {
	if opt.Store == nil {
		return nil
	}
	return &storeCache[J, R]{st: opt.Store, force: opt.Force,
		sweepID: sweepID, cfgHash: cfgHash, key: key}
}

func (c *storeCache[J, R]) digest(j J) string {
	return CellDigest(core.Exact, c.sweepID, c.cfgHash, c.key(j))
}

// Lookup consults the store; under Force it reports a miss without
// looking, so every job recomputes (and Commit overwrites).
func (c *storeCache[J, R]) Lookup(j J) (R, bool) {
	var r R
	if c.force {
		return r, false
	}
	ok, err := c.st.Get(c.digest(j), &r)
	if err != nil || !ok {
		// A decode failure is a miss, not a fatal error: the job
		// recomputes and its commit replaces the bad entry.
		var zero R
		return zero, false
	}
	return r, true
}

// Commit journals one completed job. Errors are absorbed — the store
// counts them (store/commit_errors) and a failed checkpoint must slow
// the sweep down, never kill it.
func (c *storeCache[J, R]) Commit(j J, r R) {
	_ = c.st.Put(c.digest(j), c.sweepID, c.key(j), r)
}

// TraceInfo derives the job's trace identity from the same content
// digest that addresses its cached result (sweep.TraceKeyer): the run
// that computes a cell and every later run that serves it warm emit
// their chains under one trace ID, so traces join against cached
// results across runs. The human key is the job's sweep key prefixed
// with the sweep family.
func (c *storeCache[J, R]) TraceInfo(j J) (id, key string) {
	return obs.TraceID("store", c.digest(j)), c.sweepID + "/" + c.key(j)
}

// machinesHash fingerprints the simulator configurations of a machine
// set (plus any extra scalars the jobs consume directly, e.g. the
// platform scale a matrix instantiation uses).
func machinesHash(machines []*core.Machine, extra ...any) string {
	vals := make([]any, 0, len(machines)+len(extra))
	for _, m := range machines {
		vals = append(vals, m.Config())
	}
	vals = append(vals, extra...)
	return obs.Hash(vals...)
}

// denseCache is the shared store hook of every dense analytic sweep
// (fig1, fig7/8, fig15/16, table4/5 dense rows): the job's machine
// configuration is hashed into the key, so any experiment evaluating
// the same (config, kind, n, nb) cell reuses the same entry.
func denseCache(opt Options) sweep.Cache[core.DenseJob, memsim.Result] {
	return cacheFor[core.DenseJob, memsim.Result](opt, DenseSweepID, "", DenseKey)
}
