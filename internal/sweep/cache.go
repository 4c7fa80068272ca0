package sweep

// Cache is the engine's lookup/commit hook for memoized sweeps. A
// cached job is resolved by the worker that draws it and runs nothing
// — it never calls fn or counts as an executed job — and every job
// that does run is committed the moment it finishes (checkpointing),
// not in an end-of-run dump, so a cancelled sweep resumes from its
// last completed job.
//
// Implementations must be safe for concurrent use: Lookup and Commit
// are both called from worker goroutines, several at once, Lookup as a
// worker draws a job and Commit as a computed job completes. A Lookup
// hit must return a result byte-equivalent to what fn would compute —
// the warm==cold report equivalence contract rests on it.
type Cache[J, R any] interface {
	// Lookup returns the memoized result for a job and whether it hit.
	Lookup(job J) (R, bool)
	// Commit persists one completed job's result. Failures must be
	// absorbed (counted, logged) — a broken cache may slow a sweep
	// down but must never fail it.
	Commit(job J, r R)
}

// TraceKeyer is the optional Cache extension that gives traced jobs
// their content-derived identity: TraceInfo returns the stable trace
// ID (derived from the same digest that addresses the job's cached
// result) and the human job key. When a traced MapCached's cache
// implements it, the run that computes a cell and every later run that
// serves it warm emit chains under the same trace ID — traces join
// against cached results across runs. Caches that don't implement it
// fall back to per-run sweep-sequence IDs.
type TraceKeyer[J any] interface {
	TraceInfo(job J) (id, key string)
}
