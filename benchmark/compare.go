package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the contract the driver and `compare` judge
// result sets by.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadJSON decodes the JSON file at path into v.
func loadJSON(path string, v any) error {
	js, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(js, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadSpec(path string) (spec benchSpec, err error) {
	return spec, loadJSON(path, &spec)
}

// resultSet is what the suite writes and `compare` reads: every run of every
// workload with the machine it was taken on.
type resultSet struct {
	HostCPUs   int     `json:"host_cpus"`
	GoVersion  string  `json:"go_version"`
	Date       string  `json:"date"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Claim      *string `json:"claim"` // a benchmark-defining change claims no gain
	// ProbeMetrics names the per-layer metrics that come from the layer
	// probes: the same measurement in every traced run, whatever its
	// workload, so readers pool them.
	ProbeMetrics []string `json:"probe_metrics"`
	Runs         []setRun `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

func loadSet(path string) (set resultSet, err error) {
	return set, loadJSON(path, &set)
}

// values returns the set's values of one metric, one per run of the given
// kind on the given workload (on any workload when it is empty).
func (s resultSet) values(workload, name string, trace int) (v []float64) {
	for _, r := range s.Runs {
		if (workload != "" && r.Workload != workload) || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func (s resultSet) failedShare(workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the run-to-run noise of v as a share of its median: the distance
// between the first and third quartile (as Python's statistics.quantiles(v,
// n=4) gives them) from four values up, the full range below that.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (quartile(3) - quartile(1)) / med
}

// verdict compares a candidate set b against a base set a on one metric.
// `worse`: b's median is worse than a's by more than bound. `unresolved`:
// it is not, but a set's spread is wider than bound, so a regression of that
// size could hide in the noise — unless every run of b beats every run of a.
// ratio is median(b)/median(a).
func verdict(a, b []float64, better string, bound float64) (v string, ratio float64) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "missing", 0
	}
	ratio = mb / ma
	lower := better != "higher"
	worsening := ratio - 1
	if !lower {
		worsening = 1 - ratio
	}
	if worsening > bound {
		return "worse", ratio
	}
	if spread(a) > bound || spread(b) > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if (lower && x >= y) || (!lower && x <= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", ratio
		}
	}
	return "ok", ratio
}

// compareSets prints one row per (workload, end-to-end metric) and returns
// how many rows are `worse` plus how many workloads failed a larger share of
// their operations in b than in a.
func compareSets(spec benchSpec, a, b resultSet) (bad int) {
	fmt.Printf("base: %d CPUs, %s, %s    candidate: %d CPUs, %s, %s\n",
		a.HostCPUs, a.GoVersion, a.Date, b.HostCPUs, b.GoVersion, b.Date)
	fmt.Printf("%-14s %-14s %12s %12s %5s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "candidate", "unit", "ratio", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name, 0), b.values(w.Name, m.Name, 0)
			v, ratio := verdict(va, vb, m.Better, m.Bound)
			if v == "worse" || v == "missing" {
				bad++
			}
			fmt.Printf("%-14s %-14s %12.5g %12.5g %5s %8.4f %8.4f %8.4f %6.2f  %s (n=%d/%d)\n",
				w.Name, m.Name, median(va), median(vb), m.Unit, ratio, spread(va), spread(vb), m.Bound, v, len(va), len(vb))
		}
		if fa, fb := a.failedShare(w.Name), b.failedShare(w.Name); fb > fa {
			bad++
			fmt.Printf("%-14s failed share rose from %.4f to %.4f\n", w.Name, fa, fb)
		}
	}
	// Per-layer metrics carry no bound; list the ones that moved, and the
	// allocation count that should repeat almost exactly.
	fmt.Println("\nper-layer metrics whose median moved by more than 10% (no verdict), and caf.mallocs:")
	pooled := make(map[string]bool)
	for _, name := range a.ProbeMetrics {
		pooled[name] = true
	}
	moved := func(label, workload string, m specMetric) {
		va, vb := a.values(workload, m.Name, 1), b.values(workload, m.Name, 1)
		ma, mb := median(va), median(vb)
		if ma == 0 {
			return
		}
		if r := mb / ma; r > 1.10 || r < 1/1.10 || m.Name == "caf.mallocs" {
			fmt.Printf("%-14s %-36s %14.6g %14.6g %-6s ratio %.4f (n=%d/%d)\n", label, m.Name, ma, mb, m.Unit, r, len(va), len(vb))
		}
	}
	for _, m := range spec.PerLayer {
		if pooled[m.Name] {
			moved("(probes)", "", m)
			continue
		}
		for _, w := range spec.Workloads {
			moved(w.Name, w.Name, m)
		}
	}
	return bad
}

// compareMain is `benchmark compare A.json B.json`: A is the base.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark contract holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
		return 2
	}
	if bad := compareSets(spec, a, b); bad > 0 {
		fmt.Printf("\n%d regression(s)\n", bad)
		return 1
	}
	return 0
}
