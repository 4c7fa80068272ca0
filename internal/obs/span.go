package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span measures the wall time of one phase of a run. A span is a timed
// observation of the registry histogram named by its path: ending two
// spans with the same path records two observations, which is exactly
// what a sweep of thousands of identical jobs needs, and each phase
// shows up wherever histograms do: the snapshot and SpanReport.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins a span at the given slash-separated path. On a nil
// registry it returns a nil span whose End no-ops, so phase timing
// costs nothing when telemetry is off.
func (r *Registry) StartSpan(path string) *Span {
	if r == nil {
		return nil
	}
	h := r.Histogram(path) //opmlint:allow counternames — forwarding helper: the span path is checked at the StartSpan call site
	// This is the obs layer's one legitimate clock start: span timing is
	// reported to operators and dumped in snapshots, and nothing in this
	// package feeds the deterministic report bytes (see package doc).
	return &Span{h: h, start: time.Now()} //opmlint:allow determinism — span wall time is telemetry output only, never an input to simulated results
}

// End observes the span's wall time in its histogram and returns it.
// Safe on a nil span (returns 0). A span may be ended once; ending it
// again records a second interval from the same start.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start) //opmlint:allow determinism — span wall time is telemetry output only, never an input to simulated results
	s.h.Observe(d)
	return d
}

// SpanReport renders every registry histogram — span phases and the
// sweep latencies alike — as a path-sorted table of total time,
// observation count and mean: the per-phase wall-time breakdown of a
// finished run. Returns "" when the registry holds no histogram (or is
// nil).
func (r *Registry) SpanReport() string {
	hists := r.Snapshot().Histograms
	if len(hists) == 0 {
		return ""
	}
	paths := make([]string, 0, len(hists))
	for p := range hists {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	b.WriteString("phase breakdown (wall time):\n")
	for _, p := range paths {
		h := hists[p]
		fmt.Fprintf(&b, "  %-34s %12s  ×%-5d mean %s\n", p,
			time.Duration(h.SumNS).Round(time.Microsecond), h.Count,
			time.Duration(h.MeanNS).Round(time.Microsecond))
	}
	return b.String()
}
