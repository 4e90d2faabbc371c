// Bench regression gating: compare fixed probe workloads against a
// checked-in baseline (the "gate" section of a BENCH_*.json file) with
// per-metric tolerance bands. The gated metrics are virtual-time quantities
// — final clocks, virtual GUPS, deterministic message/flush counters — so
// the gate is immune to wall-clock noise on shared CI machines: a tripped
// band means the cost model or the communication schedule itself changed.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/critpath"
)

// GateMetric is one gated quantity of the checked-in baseline. Name is
// "<runkey>/<metric>", where the runkey ("ra/mpi/np8") names the probe
// workload that measures it. Better directs the band: "lower" gates only
// increases, "higher" only decreases, empty gates both directions (for
// counters that must not drift at all).
type GateMetric struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance"` // relative band, e.g. 0.02 = ±2%
	Better    string  `json:"better,omitempty"`
}

// GateBaseline is the "gate" section of a BENCH_*.json file.
type GateBaseline struct {
	Note    string       `json:"note,omitempty"`
	Metrics []GateMetric `json:"metrics"`
}

// Gate statuses.
const (
	GateOK           = "ok"
	GateRegressed    = "regressed"
	GateMissingProbe = "missing-probe"
)

// GateResult is the verdict on one metric.
type GateResult struct {
	Metric  GateMetric
	Current float64
	Delta   float64 // relative deviation from baseline (signed)
	Status  string
}

// EvalGateMetric compares a measured value against one baseline metric.
// present is false when the probe could not produce the metric (renamed
// counter, removed probe) — that is a gate failure too: a silently vanished
// metric must not pass.
func EvalGateMetric(m GateMetric, cur float64, present bool) GateResult {
	r := GateResult{Metric: m, Current: cur}
	if !present {
		r.Status = GateMissingProbe
		return r
	}
	if m.Value != 0 {
		r.Delta = (cur - m.Value) / math.Abs(m.Value)
	} else if cur != 0 {
		r.Delta = math.Inf(1)
	}
	bad := false
	switch m.Better {
	case "lower": // smaller is better; gate increases only
		bad = r.Delta > m.Tolerance
	case "higher": // larger is better; gate decreases only
		bad = r.Delta < -m.Tolerance
	default: // two-sided
		bad = math.Abs(r.Delta) > m.Tolerance
	}
	if bad {
		r.Status = GateRegressed
	} else {
		r.Status = GateOK
	}
	return r
}

// LoadGateBaseline reads the "gate" section of a BENCH_*.json baseline
// file.
func LoadGateBaseline(path string) (*GateBaseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Gate *GateBaseline `json:"gate"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if doc.Gate == nil || len(doc.Gate.Metrics) == 0 {
		return nil, fmt.Errorf("bench: %s has no gate section", path)
	}
	return doc.Gate, nil
}

// runKey splits "ra/mpi/np8/virtual_s" into the probe runkey and the metric
// name within it.
func runKey(name string) (key, metric string) {
	i := strings.LastIndex(name, "/")
	if i < 0 {
		return "", name
	}
	return name[:i], name[i+1:]
}

// RunGate executes every probe the baseline's metrics name (each runkey
// once) and evaluates all metrics. ok is true iff every metric gates OK.
func RunGate(b *GateBaseline, platform *fabric.Params) (results []GateResult, ok bool) {
	if platform == nil {
		platform = fabric.Platform("fusion")
	}
	probes := make(map[string]map[string]float64)
	probeErr := make(map[string]error)
	for _, m := range b.Metrics {
		key, _ := runKey(m.Name)
		if _, seen := probes[key]; seen || probeErr[key] != nil {
			continue
		}
		vals, err := gateProbe(key, platform)
		if err != nil {
			probeErr[key] = err
			continue
		}
		probes[key] = vals
	}
	ok = true
	for _, m := range b.Metrics {
		key, metric := runKey(m.Name)
		vals := probes[key]
		cur, present := vals[metric]
		r := EvalGateMetric(m, cur, present && vals != nil)
		results = append(results, r)
		if r.Status != GateOK {
			ok = false
		}
	}
	return results, ok
}

// gateProbe runs one fixed probe workload and returns its metrics. The
// probes mirror the tier-1 test configurations, so the gate measures
// exactly what the test suite pins.
func gateProbe(key string, platform *fabric.Params) (map[string]float64, error) {
	switch key {
	case "ra/mpi/np8":
		return probeRA(caf.MPI, 8, platform)
	case "ra/gasnet/np8":
		return probeRA(caf.GASNet, 8, platform)
	case "pingpong/mpi":
		return probePingPong(caf.MPI, platform)
	case "scaling-sparse/mpi/np1024":
		return probeSparseScaling(caf.MPI, 1024, platform)
	default:
		return nil, fmt.Errorf("bench: unknown gate probe %q", key)
	}
}

// probeRA runs the tier-1 RandomAccess configuration and reports virtual
// time, virtual GUPS, and the deterministic communication counters.
func probeRA(sub caf.Substrate, np int, platform *fabric.Params) (map[string]float64, error) {
	cfg := caf.Config{Substrate: sub, Platform: platform, Diag: caf.Diag{Observe: true}}
	clocks := make([]int64, np)
	var gups float64
	w, err := caf.RunWorld(np, cfg, func(im *caf.Image) error {
		res, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 512, BatchSize: 128})
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			gups = res.GUPS
		}
		clocks[im.ID()] = im.Proc().Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	snap := obs.Enabled(w).Snapshot()
	return map[string]float64{
		"virtual_s":      maxClockSeconds(clocks),
		"gups":           gups,
		"msgs_sent":      float64(snap.Counters["msgs_sent"]),
		"flushall_calls": float64(snap.Counters["flushall_calls"]),
	}, nil
}

// probeSparseScaling runs the np=1024 RandomAccess scaling point in
// scalable-sync mode and reports the flush-scan share of the critical path:
// the dirty-peer flush claim, gated with a hard ceiling so the O(P) scan
// cannot creep back onto the critical path at scale.
func probeSparseScaling(sub caf.Substrate, np int, platform *fabric.Params) (map[string]float64, error) {
	cfg := caf.Config{Substrate: sub, Platform: platform, SparseFlush: true, Diag: caf.Diag{Observe: true}}
	clocks := make([]int64, np)
	w, err := caf.RunWorld(np, cfg, func(im *caf.Image) error {
		defer func() { clocks[im.ID()] = im.Proc().Now() }()
		_, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 64, BatchSize: 64})
		return err
	})
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{"virtual_s": maxClockSeconds(clocks)}
	if rep := critpath.Analyze(obs.Enabled(w), clocks); rep != nil && rep.FinishNS > 0 {
		tot := rep.ComponentTotals()
		vals["flush_scan_share"] = float64(tot[obs.CompFlushScan.String()]) / float64(rep.FinishNS)
	}
	return vals, nil
}

// probePingPong runs the tier-1 EventPingPong configuration (2 images, 200
// notify/wait round trips).
func probePingPong(sub caf.Substrate, platform *fabric.Params) (map[string]float64, error) {
	const iters = 200
	cfg := caf.Config{Substrate: sub, Platform: platform, Diag: caf.Diag{Observe: true}}
	clocks := make([]int64, 2)
	_, err := caf.RunWorld(2, cfg, func(im *caf.Image) error {
		evs, err := im.NewEvents(im.World(), 2)
		if err != nil {
			return err
		}
		peer := 1 - im.ID()
		for i := 0; i < iters; i++ {
			if im.ID() == 0 {
				if err := evs.Notify(peer, 0); err != nil {
					return err
				}
				if err := evs.Wait(1); err != nil {
					return err
				}
			} else {
				if err := evs.Wait(0); err != nil {
					return err
				}
				if err := evs.Notify(peer, 1); err != nil {
					return err
				}
			}
		}
		clocks[im.ID()] = im.Proc().Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"virtual_s": maxClockSeconds(clocks)}, nil
}

func maxClockSeconds(clocks []int64) float64 {
	var max int64
	for _, c := range clocks {
		if c > max {
			max = c
		}
	}
	return float64(max) / 1e9
}

// FormatGateResults renders gate verdicts as an aligned table.
func FormatGateResults(results []GateResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %14s %8s %7s  %s\n",
		"metric", "baseline", "current", "delta", "band", "status")
	for _, r := range results {
		band := fmt.Sprintf("%.0f%%", r.Metric.Tolerance*100)
		switch r.Metric.Better {
		case "lower":
			band = "+" + band
		case "higher":
			band = "-" + band
		default:
			band = "±" + band
		}
		fmt.Fprintf(&b, "%-28s %14.6g %14.6g %+7.2f%% %7s  %s\n",
			r.Metric.Name, r.Metric.Value, r.Current, r.Delta*100, band, r.Status)
	}
	return b.String()
}
