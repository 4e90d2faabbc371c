package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The suite is the one command that prints every metric by name: `runs`
// untraced runs of every workload, interleaved round-robin in seeded order
// so machine drift hits all workloads alike, then one traced run each.

// suiteMain runs the whole benchmark, prints the metric table, writes the
// result set to out and the spans to traceFile, and returns the exit code:
// non-zero when any operation failed.
func suiteMain(seed int64, seconds float64, runs int, out string) int {
	rng := rand.New(rand.NewSource(seed))
	set := resultSet{
		HostCPUs: hostCPUs(), GoVersion: runtime.Version(),
		Date: hostNow().UTC().Format(time.RFC3339), Seed: seed, RunSeconds: seconds,
	}
	samples := make(map[string]map[string][]float64) // workload -> end-to-end metric -> every job's value
	failed := 0
	record := func(w workload, runSeed int64, trace int, res runResult) {
		set.Runs = append(set.Runs, setRun{Workload: w.name, Seed: runSeed, Trace: trace, runResult: res})
		failed += res.Failed
		if samples[w.name] == nil {
			samples[w.name] = make(map[string][]float64)
		}
		for name, v := range res.Samples {
			samples[w.name][name] = append(samples[w.name][name], v...)
		}
	}
	shuffled := func() []workload {
		order := append([]workload(nil), workloads...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}

	for round := 0; round < runs; round++ {
		for _, w := range shuffled() {
			runSeed := seed + int64(round)
			fmt.Fprintf(os.Stderr, "benchmark: round %d/%d  %s\n", round+1, runs, w.name)
			record(w, runSeed, 0, runUntraced(w, runSeed, seconds, false))
		}
	}
	tr := newTracer()
	checks := make(map[string]float64)
	for _, w := range shuffled() {
		fmt.Fprintf(os.Stderr, "benchmark: traced run  %s\n", w.name)
		res := runTraced(w, seed, false, tr)
		checks[w.name] = res.check
		record(w, seed, 1, res)
		if len(set.ProbeMetrics) == 0 {
			for name := range res.probe {
				set.ProbeMetrics = append(set.ProbeMetrics, name)
			}
			sort.Strings(set.ProbeMetrics)
		}
	}
	// PUSH and PULL halos are the same arithmetic: the residuals must agree.
	push, pull := checks["cgpop-push"], checks["cgpop-pull"]
	if !(math.Abs(push-pull) <= 1e-12*math.Abs(push)) {
		failed++
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: cgpop-push and cgpop-pull final residuals differ: %v vs %v\n", push, pull)
	}

	printSuite(set, samples)
	if err := tr.write(traceFile); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", traceFile, err)
		return 2
	}
	if err := writeSet(out, set); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", out, err)
		return 2
	}
	fmt.Printf("\nwrote %s and %s\n", out, traceFile)
	if failed > 0 {
		fmt.Printf("%d failed operation(s)\n", failed)
		return 1
	}
	return 0
}

func writeSet(path string, set resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// printSuite prints every metric by name with its unit: end-to-end metrics
// as median, min, max and count over each workload's jobs, per-layer metrics
// from the traced runs.
func printSuite(set resultSet, samples map[string]map[string][]float64) {
	fmt.Printf("host_cpus=%d %s %s seed=%d run_seconds=%g\n\n", set.HostCPUs, set.GoVersion, set.Date, set.Seed, set.RunSeconds)
	fmt.Printf("end-to-end (untraced jobs; lower is better)\n%-14s %-14s %12s %12s %12s %4s %s\n",
		"workload", "metric", "median", "min", "max", "n", "unit")
	units := make(map[string]string)
	for _, r := range set.Runs {
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	for _, w := range workloads {
		attempted, failed := 0, 0
		for _, r := range set.Runs {
			if r.Workload == w.name {
				attempted += r.Attempted
				failed += r.Failed
			}
		}
		for _, name := range []string{"setup_s", "host_s", "serial_host_s", "peak_rss_mb"} {
			v := append([]float64(nil), samples[w.name][name]...)
			sort.Float64s(v)
			if len(v) == 0 {
				continue
			}
			fmt.Printf("%-14s %-14s %12.5g %12.5g %12.5g %4d %s\n", w.name, name, median(v), v[0], v[len(v)-1], len(v), units[name])
		}
		fmt.Printf("%-14s operations: %d attempted, %d failed\n", w.name, attempted, failed)
	}

	// Per-layer: workload-specific metrics differ between traced runs; the
	// layer probes are the same measurement repeated in each, so they are
	// pooled.
	pooled := make(map[string]bool)
	for _, name := range set.ProbeMetrics {
		pooled[name] = true
	}
	var names []string
	for _, r := range set.Runs {
		if r.Trace == 1 && r.Workload == workloads[0].name {
			for name := range r.Metrics {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	fmt.Printf("\nper-layer, per workload (one traced run each)\n%-28s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %13s", w.name)
	}
	fmt.Println(" unit")
	for _, name := range names {
		if pooled[name] {
			continue
		}
		fmt.Printf("%-28s", name)
		for _, w := range workloads {
			fmt.Printf(" %13.6g", median(set.values(w.name, name, 1)))
		}
		fmt.Printf(" %s\n", units[name])
	}
	fmt.Printf("\nper-layer, layer probes (GOMAXPROCS=1; one sample per traced run)\n%-40s %14s %14s %14s %3s %s\n",
		"metric", "median", "min", "max", "n", "unit")
	for _, name := range set.ProbeMetrics {
		v := set.values("", name, 1)
		sort.Float64s(v)
		if len(v) > 0 {
			fmt.Printf("%-40s %14.6g %14.6g %14.6g %3d %s\n", name, median(v), v[0], v[len(v)-1], len(v), units[name])
		}
	}
}
