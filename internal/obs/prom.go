package obs

// Prometheus text-exposition rendering of the registry — the scrape
// seam opmbench -pprof and the opmserve daemon mount. The mapping from
// the registry's slash-separated names to Prometheus metric names is
// mechanical and lossless enough to grep back: "sweep/job_latency" →
// "opm_sweep_job_latency". Histograms, span phases included, render as
// summaries (quantiles are precomputed from the pow2 buckets, not
// client-aggregatable histograms — the registry's buckets are
// process-local and fixed, so the summary form is the honest one).
// Output is sorted by metric name, so a finished run renders
// deterministically.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// promName converts a registry instrument name to a Prometheus metric
// name: "opm_" prefix, every byte outside [a-zA-Z0-9_] → '_'. Literal
// names match [a-z0-9_/]+ (opmlint counternames), but annotated
// dynamic ones embed outside identifiers — experiment IDs such as
// ext-skylake, opmserve -admit class names — that may not.
func promName(name string) string {
	b := []byte("opm_" + name)
	for i, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') {
			b[i] = '_'
		}
	}
	return string(b)
}

// promEscape escapes a label value per the exposition format
// (backslash, double quote, newline).
func promEscape(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promLabel renders one {name="value"} label set with the value
// escaped. Every labelled series below goes through this — label
// safety is structural, not a property of today's label values.
func promLabel(name, value string) string {
	return "{" + name + `="` + promEscape(value) + `"}`
}

// promHelp writes the HELP line for a metric family. The exposition
// format wants HELP text newline- and backslash-escaped (a double
// quote is legal there, unlike in label values).
func promHelp(b *strings.Builder, metric, help string) {
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(b, "# HELP %s %s\n", metric, help)
}

// WriteProm renders the registry in Prometheus text exposition format
// 0.0.4: counters as counters (with the conventional _total suffix),
// gauges as gauges, and histograms as summaries with p50/p95/p99
// quantile series in seconds. Safe on a nil registry (writes nothing).
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	s := r.Snapshot()
	var b strings.Builder

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mn := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", mn, mn, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", mn, mn, s.Gauges[name])
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		mn := promName(name) + "_seconds"
		promHelp(&b, mn, "latency summary of registry histogram "+name+
			" (p50/p95/p99 interpolated from fixed pow2 buckets)")
		fmt.Fprintf(&b, "# TYPE %s summary\n", mn)
		fmt.Fprintf(&b, "%s%s %g\n", mn, promLabel("quantile", "0.5"), float64(h.P50NS)/1e9)
		fmt.Fprintf(&b, "%s%s %g\n", mn, promLabel("quantile", "0.95"), float64(h.P95NS)/1e9)
		fmt.Fprintf(&b, "%s%s %g\n", mn, promLabel("quantile", "0.99"), float64(h.P99NS)/1e9)
		fmt.Fprintf(&b, "%s_sum %g\n", mn, float64(h.SumNS)/1e9)
		fmt.Fprintf(&b, "%s_count %d\n", mn, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// PromHandler serves the registry in Prometheus exposition format —
// mounted at /metrics/prom by Serve, scrapeable with a plain
// static_config target.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteProm(w); err != nil {
			// Headers are gone by the time a body write fails; count it
			// rather than pretend http.Error could still reach the client.
			r.Counter("obs/http_write_errors").Inc()
		}
	})
}
