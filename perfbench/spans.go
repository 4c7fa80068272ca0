package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cell share Cell;
// Parent is the enclosing span's ID (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run writes them out when it
// ends. A nil tracer records nothing and adds no labels.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

type spanKey struct{}
type cellKey struct{}

// withCell names the cell the spans under ctx belong to.
func (t *tracer) withCell(ctx context.Context, cell string) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(context.WithValue(ctx, cellKey{}, cell), spanKey{}, -1)
}

// do runs fn as span name, a child of the span ctx carries. The CPU
// profile attributes fn's samples to (workload, name) through
// runtime/pprof labels.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context)) {
	if t == nil {
		fn(ctx)
		return
	}
	parent, ok := ctx.Value(spanKey{}).(int)
	if !ok {
		parent = -1
	}
	cell, _ := ctx.Value(cellKey{}).(string)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
	pprof.Do(ctx, pprof.Labels("workload", t.workload, "layer", name), func(ctx context.Context) {
		fn(context.WithValue(ctx, spanKey{}, id))
	})
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// layerTime is the self time and call count of one layer.
type layerTime struct {
	Name  string
	Count int
	Self  time.Duration
	Total time.Duration
}

// layers derives each layer's self time: a span's duration minus the
// part its child spans cover. Children of one span run sequentially on
// its goroutine, so their durations do not overlap. Layers are sorted
// by self time, largest first.
func (t *tracer) layers() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes one JSON object per span.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeTable writes each layer's self time × count against the passes'
// wall time; containers are the cell-level spans whose self time is
// benchmark bookkeeping rather than a layer.
func writeTable(w io.Writer, workload string, ls []layerTime, passes int, wall time.Duration, workers int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "workload %s: %d traced passes, wall %.3f s per pass, %d workers\n",
		workload, passes, wall.Seconds()/float64(passes), workers)
	fmt.Fprintf(bw, "%-24s %8s %12s %12s %14s %10s\n", "layer", "count", "self_ms/pass", "total_ms/pass", "self_us/call", "share")
	capacity := float64(wall) * float64(workers)
	for _, l := range ls {
		share := 0.0
		if !isContainer(l.Name) {
			share = float64(l.Self) / capacity
		}
		fmt.Fprintf(bw, "%-24s %8d %12.3f %12.3f %14.3f %9.1f%%\n", l.Name, l.Count/passes,
			float64(l.Self.Microseconds())/1e3/float64(passes),
			float64(l.Total.Microseconds())/1e3/float64(passes),
			float64(l.Self.Nanoseconds())/1e3/float64(l.Count), 100*share)
	}
	return bw.Flush()
}

// isContainer reports whether spans of this name only group layer
// spans: their self time is bookkeeping, not any layer's work.
func isContainer(name string) bool {
	switch name {
	case "bench.pass", "bench.cell", "bench.commit", "bench.lookup", "sweep.map":
		return true
	}
	return false
}

// rename gives span id its final name, for a layer known only once the
// call returns (the source a query was served from).
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}
