package wallprof

import (
	"fmt"
	"sort"
	"strings"
)

// components is the fixed package → component table, in table order. pkgs
// are first path elements under cafmpi/internal/ ("obs" covers obs/...).
// virt names the critpath components whose virtual time the row's host
// time mirrors; every critpath component sits in exactly one row, so the
// virtual column sums to at most the critical chain.
var components = [...]struct {
	name string
	pkgs []string
	virt []string
}{
	{"app", []string{"hpcc", "cgpop"}, []string{"compute"}},
	{"core", []string{"core"}, []string{"event_wait"}},
	{"rtmpi", []string{"rtmpi"}, nil},
	{"rtgasnet", []string{"rtgasnet"}, nil},
	{"mpi", []string{"mpi"}, []string{"flush_scan", "flush_wait"}},
	{"gasnet", []string{"gasnet"}, []string{"srq_stall"}},
	{"fabric", []string{"fabric"}, []string{"o_overhead", "L_latency", "G_bandwidth", "g_nic_gap", "match"}},
	{"sim", []string{"sim"}, nil},
	{"instrumentation", []string{"obs", "trace", "sanitizer"}, nil},
	{"go runtime", nil, nil}, // samples with no frame in the table: GC, scheduler
}

// runtimeRow is the row of samples that no table package claims.
const runtimeRow = len(components) - 1

// rowOf returns the components row of a profiled function name such as
// "cafmpi/internal/obs/critpath.Analyze", or -1 when its package is not in
// the table (the runtime, the standard library, the caf facade, faults).
func rowOf(fn string) int {
	rest, ok := strings.CutPrefix(fn, "cafmpi/internal/")
	if !ok {
		return -1
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for i, c := range components {
		for _, p := range c.pkgs {
			if p == pkg {
				return i
			}
		}
	}
	return -1
}

// ReportRow is one component's host-vs-virtual comparison.
type ReportRow struct {
	Component  string  `json:"component"`
	Samples    int64   `json:"samples"`    // CPU samples charged to the component
	HostShare  float64 `json:"host_share"` // Samples over the report's total
	VirtShare  float64 `json:"virt_share"` // fraction of virtual makespan blamed on mapped comps
	Divergence float64 `json:"divergence"` // HostShare - VirtShare: host cost the virtual model doesn't predict
}

// Report is the host-time blame table plus host runtime health. Rows hold
// every component, ranked by divergence, descending: in order, the to-do
// list for host-side optimization.
type Report struct {
	Rows    []ReportRow `json:"rows"`
	Samples int64       `json:"samples"` // CPU samples in the profile (100 per CPU-second)
	Host    HostStats   `json:"host"`
	// Err says why the report has no shares: the CPU profile was not
	// taken (another was running) or could not be decoded.
	Err string `json:"error,omitempty"`
}

// Analyze decodes the run's CPU profile into the divergence report.
//
// virt is the critpath ComponentTotals map, the blame of the one critical
// chain (its values sum to at most the makespan), and virtFinishNS the
// virtual makespan; pass nil/0 when critpath was not run — the virtual share
// column is then zero and divergence equals host share. Analyze calls
// Finish, so it is safe as the first post-run call.
func (ww *World) Analyze(virt map[string]int64, virtFinishNS int64) *Report {
	if ww == nil {
		return nil
	}
	ww.Finish()
	rep := &Report{Host: ww.host}
	if ww.profErr != nil {
		rep.Err = "cpu profile not taken: " + ww.profErr.Error()
		return rep
	}
	counts, err := bucketSamples(ww.CPUProfile())
	if err != nil {
		rep.Err = "cpu profile: " + err.Error()
		return rep
	}
	for _, n := range counts {
		rep.Samples += n
	}
	for i, c := range components {
		row := ReportRow{Component: c.name, Samples: counts[i]}
		if rep.Samples > 0 {
			row.HostShare = float64(row.Samples) / float64(rep.Samples)
		}
		if virtFinishNS > 0 {
			var v int64
			for _, name := range c.virt {
				v += virt[name]
			}
			row.VirtShare = float64(v) / float64(virtFinishNS)
		}
		row.Divergence = row.HostShare - row.VirtShare
		rep.Rows = append(rep.Rows, row)
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].Divergence > rep.Rows[j].Divergence
	})
	return rep
}

// Text renders the ranked divergence table for terminals and CI logs.
func (rep *Report) Text() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wallprof: host wall %.3f ms, GOMAXPROCS=%d\n",
		float64(rep.Host.WallNS)/1e6, rep.Host.GOMAXPROCS)
	if rep.Err != "" {
		fmt.Fprintf(&b, "wallprof: no host shares: %s\n", rep.Err)
	} else {
		fmt.Fprintf(&b, "wallprof: %d CPU samples, by component (ranked by divergence; empty rows omitted):\n", rep.Samples)
		fmt.Fprintf(&b, "  %-16s %9s %9s %9s %11s\n", "component", "samples", "host%", "virt%", "divergence")
		for _, r := range rep.Rows {
			if r.Samples == 0 && r.VirtShare == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-16s %9d %8.1f%% %8.1f%% %+10.1f%%\n",
				r.Component, r.Samples, r.HostShare*100, r.VirtShare*100, r.Divergence*100)
		}
	}
	fmt.Fprintf(&b, "wallprof: host gc_pause %.3f ms (%d cycles), sched p50/p99 %.1f/%.1f µs, goroutines max %d\n",
		float64(rep.Host.GCPauseNS)/1e6, rep.Host.NumGC,
		float64(rep.Host.SchedLatP50NS)/1e3, float64(rep.Host.SchedLatP99NS)/1e3,
		rep.Host.GoroutineMax)
	return b.String()
}
