package obs

// Trace analysis: reconstruct per-job chains and per-worker timelines
// from a flat event stream and attribute wall time to phases — queue
// wait, compute, store I/O, retry backoff. This is the paper's
// phase-attribution methodology applied to the reproduction's own
// runtime: "where did the wall-clock go" answered from the same event
// stream Perfetto renders. cmd/opmprof is a thin CLI over this file.

import (
	"fmt"
	"sort"
)

// JobChain is one reconstructed occurrence of a traced job: its event
// chain in emission order plus derived phase attribution.
type JobChain struct {
	Trace  string // stable trace ID (digest-derived for store-backed sweeps)
	Job    string // human job key
	Worker int    // worker that ran it; -1 for store hits served inline

	StartNS int64 // enqueue timestamp (first event's TS)
	EndNS   int64 // done/error timestamp (last event's TS)

	QueueNS   int64 // enqueue → dispatch
	BackoffNS int64 // sum of retry backoff durations
	StoreNS   int64 // sum of store lookup/commit durations
	ComputeNS int64 // busy time minus backoff and store time

	Attempts    int // resilient attempts started
	Retries     int // backoff sleeps taken
	Faults      int // injected fault fires
	Escalations int // twin→exact escalations
	CacheHit    bool
	Failed      bool
	Detail      string // error text when Failed

	Events []Event
}

// WallNS is the chain's end-to-end wall time (enqueue to done).
func (c *JobChain) WallNS() int64 { return c.EndNS - c.StartNS }

// WorkerStat aggregates one worker's share of a trace.
type WorkerStat struct {
	Worker int
	Jobs   int
	BusyNS int64 // sum of dispatch→end per job
}

// TraceProfile is the analysis of one trace: every job chain plus the
// aggregate phase breakdown and per-worker timeline stats.
type TraceProfile struct {
	Chains  []*JobChain
	Workers []WorkerStat // sorted by worker ID; hits (worker -1) first

	Jobs       int
	Hits       int
	Failures   int
	MakespanNS int64 // first enqueue → last end across the trace

	QueueNS   int64 // phase totals summed over chains
	ComputeNS int64
	StoreNS   int64
	BackoffNS int64
}

// AnalyzeTrace reconstructs job chains from a flat event stream. Events
// are processed in Seq order; a chain opens at EvEnqueue (a second
// enqueue for the same trace ID — the same content digest recomputed in
// a later sweep — opens a new occurrence) and closes at EvDone/EvError.
// Chains are returned in order of their first event, so the analysis of
// a deterministic trace is deterministic.
func AnalyzeTrace(events []Event) *TraceProfile {
	evs := make([]Event, len(events))
	copy(evs, events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	p := &TraceProfile{}
	open := map[string]*JobChain{} // trace ID → currently open occurrence
	var dispatch = map[string]int64{}

	for _, ev := range evs {
		c := open[ev.Trace]
		if ev.Name == EvEnqueue || c == nil {
			// EvEnqueue always opens a fresh occurrence; any other event
			// with no open chain (a serve chain, or a trace cut before
			// its enqueue) opens a partial one so nothing is silently
			// dropped.
			c = &JobChain{Trace: ev.Trace, Job: ev.Job, Worker: ev.Worker, StartNS: ev.TSNS}
			open[ev.Trace] = c
			p.Chains = append(p.Chains, c)
		}
		c.Events = append(c.Events, ev)
		c.EndNS = ev.TSNS
		if ev.Job != "" {
			c.Job = ev.Job
		}
		if ev.Worker >= 0 {
			c.Worker = ev.Worker
		}
		switch ev.Name {
		case EvDispatch:
			c.QueueNS = ev.TSNS - c.StartNS
			dispatch[ev.Trace] = ev.TSNS
		case EvAttempt:
			c.Attempts++
		case EvRetry:
			c.Retries++
			c.BackoffNS += ev.DurNS
		case EvFault:
			c.Faults++
		case EvEscalate:
			c.Escalations++
		case EvStoreHit:
			c.CacheHit = true
			c.StoreNS += ev.DurNS
		case EvStoreMiss, EvStoreCommit:
			c.StoreNS += ev.DurNS
		case EvDone, EvError:
			if ev.Name == EvError {
				c.Failed = true
				c.Detail = ev.Detail
			}
			busy := ev.DurNS
			if busy == 0 {
				if d, ok := dispatch[ev.Trace]; ok {
					busy = ev.TSNS - d
				}
			}
			c.ComputeNS = busy - c.BackoffNS - c.StoreNS
			if c.ComputeNS < 0 {
				c.ComputeNS = 0
			}
			delete(open, ev.Trace)
			delete(dispatch, ev.Trace)
		}
	}

	byWorker := map[int]*WorkerStat{}
	var first, last int64
	for i, c := range p.Chains {
		if i == 0 || c.StartNS < first {
			first = c.StartNS
		}
		if c.EndNS > last {
			last = c.EndNS
		}
		p.Jobs++
		if c.CacheHit {
			p.Hits++
		}
		if c.Failed {
			p.Failures++
		}
		p.QueueNS += c.QueueNS
		p.ComputeNS += c.ComputeNS
		p.StoreNS += c.StoreNS
		p.BackoffNS += c.BackoffNS
		ws := byWorker[c.Worker]
		if ws == nil {
			ws = &WorkerStat{Worker: c.Worker}
			byWorker[c.Worker] = ws
		}
		ws.Jobs++
		ws.BusyNS += c.ComputeNS + c.BackoffNS + c.StoreNS
	}
	p.MakespanNS = last - first
	for _, ws := range byWorker {
		p.Workers = append(p.Workers, *ws)
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].Worker < p.Workers[j].Worker })
	return p
}

// CriticalPath returns the chain that finished last — the job whose
// completion set the sweep's makespan. Nil on an empty trace. Ties
// break toward the earlier chain, keeping the answer deterministic.
func (p *TraceProfile) CriticalPath() *JobChain {
	var crit *JobChain
	for _, c := range p.Chains {
		if crit == nil || c.EndNS > crit.EndNS {
			crit = c
		}
	}
	return crit
}

// TopSlowest returns up to k chains by descending wall time, ties
// broken by first-event order (stable and deterministic).
func (p *TraceProfile) TopSlowest(k int) []*JobChain {
	out := make([]*JobChain, len(p.Chains))
	copy(out, p.Chains)
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNS() > out[j].WallNS() })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// PhaseBreakdown returns the trace's wall-time attribution as
// (label, ns) pairs in fixed order — the opmprof table.
func (p *TraceProfile) PhaseBreakdown() []struct {
	Label string
	NS    int64
} {
	return []struct {
		Label string
		NS    int64
	}{
		{"queue", p.QueueNS},
		{"compute", p.ComputeNS},
		{"store", p.StoreNS},
		{"retry-backoff", p.BackoffNS},
	}
}

// FmtNS renders nanoseconds human-readably (µs/ms/s) for opmprof
// output.
func FmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
