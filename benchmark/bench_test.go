package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/hpcc"
)

// The test binary doubles as the benchmark's child process: spawnChild
// re-executes os.Executable(), which under `go test` is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func loadRepoSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeInProcess runs every workload's small size in this process and
// checks its output is verified, and that PUSH and PULL halos agree.
func TestSmokeInProcess(t *testing.T) {
	checks := make(map[string]float64)
	for _, w := range workloads {
		rep := runRep(w, repOpts{smoke: true})
		if rep.Err != "" {
			t.Errorf("%s: %s", w.name, rep.Err)
		}
		if rep.SetupS <= 0 || rep.HostS <= 0 || rep.VirtualS <= 0 {
			t.Errorf("%s: non-positive timing: setup %v host %v virtual %v", w.name, rep.SetupS, rep.HostS, rep.VirtualS)
		}
		checks[w.name] = rep.Check
	}
	if push, pull := checks["cgpop-push"], checks["cgpop-pull"]; push == 0 || push != pull {
		t.Errorf("cgpop final residuals: push %v, pull %v; want equal and non-zero", push, pull)
	}
}

// TestSmokeRuns drives both run kinds through child processes at the small
// size for every workload, and checks that what they print is what
// BENCHMARK.json declares: every name well-formed, declared with the same
// unit, and none missing.
func TestSmokeRuns(t *testing.T) {
	spec := loadRepoSpec(t)
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, res runResult, declared []specMetric) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		units := make(map[string]string)
		for _, m := range declared {
			units[m.Name] = m.Unit
		}
		for name, m := range res.Metrics {
			if !wellFormed.MatchString(name) {
				t.Errorf("metric name %q is not well-formed", name)
			}
			if unit, ok := units[name]; !ok {
				t.Errorf("metric %s is not declared in BENCHMARK.json", name)
			} else if unit != m.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
			delete(units, name)
		}
		for name := range units {
			t.Errorf("metric %s is declared in BENCHMARK.json but was not reported", name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if i < len(spec.Workloads) && (spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			check(t, runUntraced(w, 1, 0, true), spec.EndToEnd)
		})
	}
	// The layer probes are the same in every traced run; one is enough.
	t.Run("traced", func(t *testing.T) {
		tr := newTracer()
		res := runTraced(workloads[0], 1, true, tr)
		check(t, res, spec.PerLayer)
		names := make(map[string]bool)
		for _, st := range tr.selfTimes() {
			names[st.Name] = true
			if st.Self < -1e-6 {
				t.Errorf("span %s has negative self time %v", st.Name, st.Self)
			}
		}
		for _, want := range []string{"run", "job", "job.observe", "setup", "kernel", "verify", "teardown", "probe.fabric", "probe.kernels"} {
			if !names[want] {
				t.Errorf("trace has no %q span", want)
			}
		}
		if v := res.Metrics["sim.virtual_spread"].Value; v < 0 {
			t.Errorf("sim.virtual_spread = %v", v)
		}
	})
}

// TestFailedVerificationIsFailedOperation corrupts a verification (an FFT
// tolerance no round trip meets) and expects the job to count as failed.
func TestFailedVerificationIsFailedOperation(t *testing.T) {
	strict := workload{
		name: "fft-strict", substrate: caf.MPI,
		smokeNP: 16, smoke: fftKernel(hpcc.FFTConfig{LogSize: 12, Verify: true}, 0),
	}
	rep := runRep(strict, repOpts{smoke: true})
	if !strings.Contains(rep.Err, "verification") {
		t.Fatalf("job with tolerance 0 reported Err=%q, want a verification miss", rep.Err)
	}
	// A name the child does not know is a failed operation too, not a crash
	// of the run.
	r := newRunner(strict, true)
	if _, ok := r.job(1, repOpts{}); ok {
		t.Error("job of an unknown workload succeeded")
	}
	if res := r.finish(); res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 1 1", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := loadRepoSpec(t)
	var bound float64
	for _, m := range spec.EndToEnd {
		if m.Name == "host_s" {
			bound = m.Bound
		}
	}
	if bound < 0.03 || bound >= 0.30 {
		t.Fatalf("host_s bound %v: the synthetic cases below assume 0.03 <= bound < 0.30", bound)
	}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"+30%", scaled(1.30), "worse"},
		{"+3%", scaled(1.03), "ok"},
		{"-30%", scaled(0.70), "ok"},
		{"noisy", []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.5, 1.5, 1.0, 0.9, 1.1}, "unresolved"},
		{"noisy but always better", []float64{0.3, 0.9, 0.5, 0.7, 0.4, 0.8, 0.6, 0.35, 0.85, 0.6}, "ok"},
	} {
		if got, ratio := verdict(base, c.b, "lower", bound); got != c.want {
			t.Errorf("%s: verdict %q (ratio %.3f), want %q", c.name, got, ratio, c.want)
		}
	}
	if got, _ := verdict(base, scaled(0.70), "higher", bound); got != "worse" {
		t.Errorf("higher-is-better metric down 30%%: verdict %q, want worse", got)
	}

	// Through whole result sets: a +30% host_s on one workload and a rise in
	// failed operations on another are each one regression.
	mkSet := func(host float64, failed int) resultSet {
		var set resultSet
		for _, w := range spec.Workloads {
			for i, v := range base {
				res := runResult{Correct: true, Attempted: 6, Metrics: make(map[string]metric)}
				for _, m := range spec.EndToEnd {
					res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
				}
				if w.Name == "fft-mpi" {
					res.Metrics["host_s"] = metric{Value: v * host, Unit: "s"}
				}
				if w.Name == "ra-mpi" && i == 0 {
					res.Failed = failed
				}
				set.Runs = append(set.Runs, setRun{Workload: w.Name, Seed: int64(i), runResult: res})
			}
		}
		return set
	}
	if bad := compareSets(spec, mkSet(1, 0), mkSet(1.03, 0)); bad != 0 {
		t.Errorf("+3%% host_s: %d regressions, want 0", bad)
	}
	if bad := compareSets(spec, mkSet(1, 0), mkSet(1.30, 1)); bad != 2 {
		t.Errorf("+30%% host_s and one new failure: %d regressions, want 2", bad)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,20], n=4) == [2.75, 5.5, 8.25]
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 20})
	if want := (8.25 - 2.75) / 5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
