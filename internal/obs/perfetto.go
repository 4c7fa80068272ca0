package obs

// Chrome trace-event (Perfetto-loadable) export. The format is the
// JSON object form — {"traceEvents": [...]} — using "X" complete
// events for each job's dispatch→end slice on its worker's track, "i"
// instant events for the intermediate chain steps (estimator and gate
// steps, store ops), and "M" metadata
// records naming the process and threads. Load the output at ui.perfetto.dev
// or chrome://tracing; timestamps are microseconds from the tracer's
// epoch.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// chromeEvent is one trace-event record. Fields follow the Chrome
// trace-event format spec; Ph is the phase ("X" complete, "i" instant,
// "M" metadata).
type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"` // µs
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope: "t" thread
	Args  map[string]any `json:"args,omitempty"`
}

const (
	perfettoPID = 1
	// Store hits never touch a worker; they render on a synthetic
	// track after the last real worker's.
	hitsTrackOffset = 1
)

// WriteChromeTrace renders a trace as Chrome trace-event JSON. Each
// job chain becomes a complete event spanning dispatch→end on its
// worker's thread track (cache hits land on a dedicated "store hits"
// track), and every intermediate event becomes a thread-scoped instant
// so estimator and gate steps are visible on the timeline. Deterministic traces render byte-identically.
func WriteChromeTrace(w io.Writer, events []Event) error {
	p := AnalyzeTrace(events)

	maxWorker := -1
	for _, ws := range p.Workers {
		if ws.Worker > maxWorker {
			maxWorker = ws.Worker
		}
	}
	hitsTID := maxWorker + hitsTrackOffset + 1
	tid := func(worker int) int {
		if worker < 0 {
			return hitsTID
		}
		return worker
	}

	out := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: perfettoPID,
		Args: map[string]any{"name": "opm sweep"},
	}}
	tids := map[int]bool{}
	for _, ws := range p.Workers {
		tids[tid(ws.Worker)] = true
	}
	tidList := make([]int, 0, len(tids))
	for t := range tids {
		tidList = append(tidList, t)
	}
	sort.Ints(tidList)
	for _, t := range tidList {
		name := fmt.Sprintf("worker %d", t)
		if t == hitsTID {
			name = "store hits"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: perfettoPID, TID: t,
			Args: map[string]any{"name": name},
		})
	}

	for _, c := range p.Chains {
		t := tid(c.Worker)
		start := c.StartNS + c.QueueNS // dispatch time
		dur := c.EndNS - start
		if dur < 0 {
			dur = 0
		}
		name := c.Job
		if name == "" {
			name = c.Trace
		}
		args := map[string]any{
			"trace":    c.Trace,
			"queue_us": float64(c.QueueNS) / 1e3,
		}
		if c.CacheHit {
			args["cache"] = "hit"
		}
		if c.Failed {
			args["error"] = c.Detail
		}
		out = append(out, chromeEvent{
			Name: name, Ph: "X",
			TS: float64(start) / 1e3, Dur: float64(dur) / 1e3,
			PID: perfettoPID, TID: t, Args: args,
		})
		for _, ev := range c.Events {
			switch ev.Name {
			case EvEnqueue, EvDispatch, EvDone, EvError:
				continue // represented by the slice itself
			}
			out = append(out, chromeEvent{
				Name: ev.Name, Ph: "i", Scope: "t",
				TS:  float64(ev.TSNS) / 1e3,
				PID: perfettoPID, TID: t,
				Args: map[string]any{"trace": ev.Trace, "detail": ev.Detail},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{out})
}

// WriteChromeTraceFile writes the Perfetto-loadable rendering of
// events to path.
func WriteChromeTraceFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	werr := WriteChromeTrace(f, events)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("obs: writing %s: %w", path, werr)
	}
	return nil
}
