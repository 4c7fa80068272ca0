// Command opmprof analyzes a JSONL job trace written by opmbench
// -trace: it reconstructs every job's causal event chain, attributes
// the run's wall time to phases (queue wait, compute, store I/O),
// rebuilds the per-worker timeline, names the critical-path
// job — the one whose completion set the makespan — and prints the
// top-k slowest jobs with their full chains. With -perfetto it also
// exports a Chrome trace-event JSON loadable at ui.perfetto.dev.
//
// Usage:
//
//	opmbench -exp fig9 -trace run.jsonl
//	opmprof -trace run.jsonl                    # phase breakdown + top-5
//	opmprof -trace run.jsonl -top 10            # more slow jobs
//	opmprof -trace run.jsonl -perfetto run.json # Perfetto/chrome://tracing export
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		traceFile = flag.String("trace", "", "JSONL trace file written by opmbench -trace (required)")
		perfetto  = flag.String("perfetto", "", "also export a Chrome trace-event / Perfetto JSON to this file")
		top       = flag.Int("top", 5, "print this many slowest jobs with their event chains")
	)
	flag.Parse()
	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "opmprof: -trace required; e.g. opmprof -trace run.jsonl")
		return 2
	}
	events, err := obs.ReadTraceFile(*traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "opmprof:", err)
		return 2
	}
	if len(events) == 0 {
		fmt.Fprintf(os.Stderr, "opmprof: %s holds no events\n", *traceFile)
		return 1
	}
	p := obs.AnalyzeTrace(events)

	fmt.Printf("trace %s: %d events, %d jobs (%d cache hits, %d failed), makespan %s\n",
		*traceFile, len(events), p.Jobs, p.Hits, p.Failures, obs.FmtNS(p.MakespanNS))

	fmt.Println("\nwall-time breakdown by phase (summed over jobs):")
	var phaseTotal int64
	for _, ph := range p.PhaseBreakdown() {
		phaseTotal += ph.NS
	}
	for _, ph := range p.PhaseBreakdown() {
		share := 0.0
		if phaseTotal > 0 {
			share = 100 * float64(ph.NS) / float64(phaseTotal)
		}
		fmt.Printf("  %-14s %10s  %5.1f%%\n", ph.Label, obs.FmtNS(ph.NS), share)
	}

	fmt.Println("\nper-worker timeline:")
	for _, ws := range p.Workers {
		name := fmt.Sprintf("worker %d", ws.Worker)
		if ws.Worker < 0 {
			name = "store hits"
		}
		fmt.Printf("  %-12s %4d jobs  busy %s\n", name, ws.Jobs, obs.FmtNS(ws.BusyNS))
	}

	if crit := p.CriticalPath(); crit != nil {
		fmt.Printf("\ncritical path (job that set the makespan): %s\n", jobName(crit))
		fmt.Printf("  wall %s = queue %s + compute %s + store %s\n",
			obs.FmtNS(crit.WallNS()), obs.FmtNS(crit.QueueNS), obs.FmtNS(crit.ComputeNS),
			obs.FmtNS(crit.StoreNS))
		printChain(crit)
	}

	if *top > 0 {
		fmt.Printf("\ntop %d slowest jobs:\n", *top)
		for i, c := range p.TopSlowest(*top) {
			fmt.Printf("%2d. %s  wall %s (queue %s, compute %s, store %s)%s\n",
				i+1, jobName(c), obs.FmtNS(c.WallNS()), obs.FmtNS(c.QueueNS),
				obs.FmtNS(c.ComputeNS), obs.FmtNS(c.StoreNS), chainFlags(c))
			printChain(c)
		}
	}

	if *perfetto != "" {
		if err := obs.WriteChromeTraceFile(*perfetto, events); err != nil {
			fmt.Fprintln(os.Stderr, "opmprof:", err)
			return 1
		}
		fmt.Printf("\nwrote Perfetto trace to %s (load at ui.perfetto.dev)\n", *perfetto)
	}
	return 0
}

func jobName(c *obs.JobChain) string {
	if c.Job != "" {
		return c.Job
	}
	return c.Trace
}

// chainFlags summarizes the chain's notable properties inline.
func chainFlags(c *obs.JobChain) string {
	var flags []string
	if c.CacheHit {
		flags = append(flags, "cache hit")
	}
	if c.Failed {
		flags = append(flags, "FAILED")
	}
	if len(flags) == 0 {
		return ""
	}
	return "  [" + strings.Join(flags, ", ") + "]"
}

// printChain renders one job's event chain, one event per line,
// timestamps relative to the chain's first event.
func printChain(c *obs.JobChain) {
	for _, ev := range c.Events {
		line := fmt.Sprintf("      +%-10s %s", obs.FmtNS(ev.TSNS-c.StartNS), ev.Name)
		if ev.DurNS > 0 {
			line += fmt.Sprintf(" (%s)", obs.FmtNS(ev.DurNS))
		}
		if ev.Detail != "" {
			detail := ev.Detail
			if len(detail) > 80 {
				detail = detail[:77] + "..."
			}
			line += " " + detail
		}
		fmt.Println(line)
	}
}
