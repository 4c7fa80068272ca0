// Command perfbench is the repository's benchmark. It drives seeded
// cells through the cell pipeline — trace generator, hierarchy
// simulator, Stepping-model timing, validation gate, result store, or
// the serving daemon's handler — and prints one JSON result line:
//
//	perfbench -workload sparse-gather -seed 1 -seconds 20 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) records spans around every call into a layer and
// reports the per-layer roster instead. README.md lists the workloads
// and defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeed is the seed whose output digests are recorded in
// reference.json.
const defaultSeed = 1

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure, in seconds")
	flag.IntVar(&traced, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for scratch stores and trace outputs")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", traced)
		os.Exit(2)
	}
	o.trace = traced == 1
	res, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
