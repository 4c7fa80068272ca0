package counternames

import (
	"context"

	"repro/internal/obs"
)

// Record publishes under a dynamically assembled name: the chaos
// gate's greps and the dashboards can never enumerate it.
func Record(reg *obs.Registry, level string, n int64) {
	reg.Counter("cache/" + level + "/hits").Add(n)
}

// BadName uses a literal that violates the [a-z0-9_/]+ charset.
func BadName(reg *obs.Registry) {
	reg.Gauge("Cache-Utilization%").Set(1)
}

// DynamicHistogram builds a histogram name at run time.
func DynamicHistogram(reg *obs.Registry, phase string) {
	reg.Histogram(phase + "_latency").Observe(0)
}

// DynamicSpan builds a span name at run time.
func DynamicSpan(reg *obs.Registry, phase string) {
	reg.StartSpan("run/" + phase).End()
}

// DynamicEvent emits a trace event under a run-time name.
func DynamicEvent(ctx context.Context, kind string) {
	obs.TraceEvent(ctx, "job/"+kind, "")
}

// BadEmit records an event whose name violates the charset.
func BadEmit(tr *obs.Tracer) {
	tr.Emit("id", "Job-Done!", "key", -1, 0, "")
}
