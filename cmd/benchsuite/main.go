// Command benchsuite regenerates the paper's tables and figures on the
// simulated platforms and prints each as an aligned text table.
//
// Usage:
//
//	benchsuite [-exp fig3,fig4 | -exp all] [-maxp 256] [-quick] [-results-out results.txt]
//
// Every file-producing flag follows the -<plane>-out convention:
// -results-out, -csv-out, -stats-out, -scaling-out.
//
// Experiment ids mirror the paper artifacts (fig1..fig12, tab1,
// ubench-mira, ubench-edison, ubench-fusion, ablation-rflush); see
// DESIGN.md for the index.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cafmpi/internal/bench"
	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
)

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		platform = flag.String("platform", "fusion", "default platform preset (fusion|edison|mira); figures with a fixed platform override this")
		maxP     = flag.Int("maxp", 256, "cap for process-count sweeps")
		quick    = flag.Bool("quick", false, "shrink workloads (smoke test)")
		paper    = flag.Bool("paper", false, "also print the paper's original series for comparison")
		out      = flag.String("results-out", "", "also append formatted results to this file")
		csvOut   = flag.String("csv-out", "", "also append CSV rows to this file")
		statsOut = flag.String("stats-out", "", "append one JSON line of runtime counters per job to this file")
		scaleOut = flag.String("scaling-out", "", "write the scaling experiment's ScalingReport JSON (BENCH_scaling.json) to this file")
		list     = flag.Bool("list", false, "list experiments and exit")
		baseline = flag.String("baseline", "", "BENCH_*.json baseline file with a \"gate\" section")
		gate     = flag.Bool("gate", false, "run regression gate probes against -baseline and exit nonzero on regression")
	)
	flag.Parse()

	if *gate {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchsuite: -gate requires -baseline")
			os.Exit(2)
		}
		b, err := bench.LoadGateBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(2)
		}
		pf := fabric.Platform(*platform)
		if pf == nil {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown platform %q\n", *platform)
			os.Exit(2)
		}
		results, ok := bench.RunGate(b, pf)
		fmt.Print(bench.FormatGateResults(results))
		if !ok {
			fmt.Fprintln(os.Stderr, "benchsuite: gate FAILED")
			os.Exit(1)
		}
		fmt.Println("benchsuite: gate passed")
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	pf := fabric.Platform(*platform)
	if pf == nil {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown platform %q\n", *platform)
		os.Exit(2)
	}
	opts := bench.Options{Platform: pf, MaxP: *maxP, Quick: *quick, ScalingOut: *scaleOut}

	var ids []string
	if *expFlag == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	var csvSink *os.File
	if *csvOut != "" {
		f, err := os.OpenFile(*csvOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csvSink = f
	}
	var sink *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	var statsSink *os.File
	if *statsOut != "" {
		f, err := os.OpenFile(*statsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		statsSink = f
	}

	failed := 0
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		runOpts := opts
		if statsSink != nil {
			expID := e.ID
			enc := json.NewEncoder(statsSink)
			runOpts.Stats = func(label string, snap *obs.Snapshot) {
				line := struct {
					Experiment string        `json:"experiment"`
					Label      string        `json:"label"`
					Stats      *obs.Snapshot `json:"stats"`
				}{expID, label, snap}
				if err := enc.Encode(&line); err != nil {
					fmt.Fprintf(os.Stderr, "benchsuite: stats-out: %v\n", err)
				}
			}
		}
		start := time.Now() //caflint:allow wallclock -- host wall time of the whole experiment, reported alongside virtual results
		tab, err := e.Run(runOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		text := bench.Format(tab)
		fmt.Printf("%s# paper: %s\n# (wall %s)\n\n", text, e.Paper, //caflint:allow wallclock -- printing host wall time
			time.Since(start).Round(time.Millisecond))
		if *paper {
			if ref := bench.PaperReference(e.ID); ref != nil {
				fmt.Println(bench.Format(ref))
			}
		}
		if sink != nil {
			fmt.Fprintf(sink, "%s# paper: %s\n\n", text, e.Paper)
		}
		if csvSink != nil {
			fmt.Fprint(csvSink, bench.FormatCSV(tab))
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
