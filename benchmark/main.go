// Command benchmark is the repository's benchmark: whole caf.RunWorld jobs
// timed end to end on the host clock, and per-module layer probes plus a
// traced run that say which layer a change moved. See README.md.
//
//	go run -C benchmark cafmpi/benchmark --workload ra-mpi --seed 1 --seconds 15 --trace 0
//	go run -C benchmark cafmpi/benchmark                      # every workload, every metric
//	go run -C benchmark cafmpi/benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// traceFile is where a traced run leaves its spans.
const traceFile = "out/trace.json"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	var (
		name    = flag.String("workload", "", "run one workload and print its result as one JSON line; empty runs the whole suite")
		seed    = flag.Int64("seed", 1, "orders the jobs within a run and the workloads within the suite, and fills probe payloads")
		seconds = flag.Float64("seconds", 15, "how long one untraced run keeps starting job pairs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from a traced run and the layer probes")
		runs    = flag.Int("runs", 3, "suite: untraced runs per workload")
		out     = flag.String("out", "out/results.json", "suite: where to write the result set")
	)
	flag.Parse()
	if *name == "" {
		os.Exit(suiteMain(*seed, *seconds, *runs, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var res runResult
	if *trace == 0 {
		res = runUntraced(w, *seed, *seconds, false)
	} else {
		tr := newTracer()
		res = runTraced(w, *seed, false, tr)
		if err := tr.write(traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", traceFile, err)
			os.Exit(2)
		}
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(js))
	if !res.Correct {
		os.Exit(1)
	}
}
