package counternames

import (
	"context"

	"repro/internal/obs"
)

// prefix is a compile-time constant, so names folded from it are
// still compile-time constants the check can read.
const prefix = "cache/"

// Publish uses literal and constant-folded names.
func Publish(reg *obs.Registry, n int64) {
	reg.Counter("cache/l2/hits").Add(n)
	reg.Counter(prefix + "l2/misses").Add(n)
	reg.Gauge("cache/utilization").Set(0.5)
	reg.Histogram("cache/fill_latency").Observe(0)
}

// Phases times constant-named spans and emits constant-named trace
// events (literal and constant-folded).
func Phases(ctx context.Context, reg *obs.Registry, tr *obs.Tracer) {
	sp := reg.StartSpan("run/total")
	defer sp.End()
	obs.TraceEvent(ctx, "job/done", "")
	obs.TraceEventDur(ctx, prefix+"commit", 0, "")
	tr.Emit("id", "job/enqueue", "key", -1, 0, "")
}
