package wallprof

import (
	"fmt"
	"sort"
	"strings"
)

// virtComps maps each wall site to the virtual-time critpath components
// that "explain" it: host time spent there that the virtual model already
// blames on the same mechanism is expected; the *excess* is simulator
// overhead. The sets are disjoint so the two share columns are comparable
// row by row.
var virtComps = map[Site][]string{
	SiteFabricInject: {"o_overhead", "L_latency", "G_bandwidth", "g_nic_gap"},
	SiteFabricAbsorb: {"match"},
	SiteMPIFlush:     {"flush_scan", "flush_wait"},
	SiteGASNetAM:     {"srq_stall"},
	SiteSanitizer:    {}, // pure simulator overhead: no virtual counterpart by design
	SiteApp:          {"compute", "event_wait"},
}

// ReportRow is one component's wall-vs-virtual comparison.
type ReportRow struct {
	Component  string  `json:"component"`
	Ops        uint64  `json:"ops"`
	Sampled    uint64  `json:"sampled"`
	WallNS     int64   `json:"wall_ns"`    // sampled span scaled by the duty cycle
	WallShare  float64 `json:"wall_share"` // fraction of total host wall time
	VirtShare  float64 `json:"virt_share"` // fraction of virtual makespan blamed on mapped comps
	Divergence float64 `json:"divergence"` // WallShare - VirtShare: host cost the virtual model doesn't predict
}

// Report is the wall-clock blame table plus host runtime health, ranked by
// divergence — the component list is, in order, the to-do list for host-
// side optimization (ROADMAP item 2).
type Report struct {
	Rows        []ReportRow `json:"rows"` // ranked by Divergence, descending
	Host        HostStats   `json:"host"`
	Attributed  float64     `json:"attributed"`  // fraction of host time under named components (always 1: residual is named)
	MeasuredNS  int64       `json:"measured_ns"` // Σ scaled site spans, excluding the residual
	SampleEvery int         `json:"sample_every"`
}

// Analyze merges every image's recorder into the divergence report.
//
// virt is the critpath ComponentTotals map, the blame of the one critical
// chain (its values sum to at most the makespan), and virtFinishNS the
// virtual makespan; pass nil/0 when critpath was not run — the virtual share
// column is then zero and divergence equals wall share. Analyze calls
// Finish, so it is safe as the first post-run call.
func (ww *World) Analyze(virt map[string]int64, virtFinishNS int64) *Report {
	if ww == nil {
		return nil
	}
	ww.Finish()
	rep := &Report{Host: ww.host, SampleEvery: SampleEvery}

	var merged [numSites]siteAcc
	for _, r := range ww.recs {
		for s := range r.sites {
			merged[s].ops += r.sites[s].ops
			merged[s].sampled += r.sites[s].sampled
			merged[s].ns += r.sites[s].ns
		}
	}

	wallTotal := ww.host.WallNS
	if wallTotal <= 0 {
		wallTotal = 1
	}
	var measured int64
	for s := Site(0); s < numSites; s++ {
		if s == SiteApp {
			continue
		}
		est := merged[s].ns * SampleEvery
		if est > wallTotal { // sampling jitter: clamp to the physical budget
			est = wallTotal
		}
		measured += est
		rep.Rows = append(rep.Rows, ReportRow{
			Component: s.String(),
			Ops:       merged[s].ops,
			Sampled:   merged[s].sampled,
			WallNS:    est,
		})
	}
	rep.MeasuredNS = measured
	residual := wallTotal - measured
	if residual < 0 {
		residual = 0
	}
	rep.Rows = append(rep.Rows, ReportRow{
		Component: SiteApp.String(),
		WallNS:    residual,
	})

	for i := range rep.Rows {
		row := &rep.Rows[i]
		row.WallShare = float64(row.WallNS) / float64(wallTotal)
		if virt != nil && virtFinishNS > 0 {
			var v int64
			for _, c := range virtComps[siteByName(row.Component)] {
				v += virt[c]
			}
			row.VirtShare = float64(v) / float64(virtFinishNS)
		}
		row.Divergence = row.WallShare - row.VirtShare
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].Divergence > rep.Rows[j].Divergence
	})
	// Every byte of host time is under a named component (the residual is
	// itself named), so attribution is total by construction.
	rep.Attributed = 1.0
	return rep
}

func siteByName(name string) Site {
	for s := Site(0); s < numSites; s++ {
		if s.String() == name {
			return s
		}
	}
	return SiteApp
}

// Text renders the ranked divergence table for terminals and CI logs.
func (rep *Report) Text() string {
	if rep == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wallprof: host wall %.3f ms, GOMAXPROCS=%d, sampled 1/%d\n",
		float64(rep.Host.WallNS)/1e6, rep.Host.GOMAXPROCS, rep.SampleEvery)
	fmt.Fprintf(&b, "wallprof: attributed %.1f%% of host time to %d named components (top 5 by divergence):\n",
		rep.Attributed*100, len(rep.Rows))
	fmt.Fprintf(&b, "  %-16s %12s %9s %9s %11s %12s\n",
		"component", "host_ms", "host%", "virt%", "divergence", "ops")
	top := rep.Rows
	if len(top) > 5 {
		top = top[:5]
	}
	for _, r := range top {
		fmt.Fprintf(&b, "  %-16s %12.3f %8.1f%% %8.1f%% %+10.1f%% %12d\n",
			r.Component, float64(r.WallNS)/1e6, r.WallShare*100,
			r.VirtShare*100, r.Divergence*100, r.Ops)
	}
	fmt.Fprintf(&b, "wallprof: host gc_pause %.3f ms (%d cycles), sched p50/p99 %.1f/%.1f µs, goroutines max %d\n",
		float64(rep.Host.GCPauseNS)/1e6, rep.Host.NumGC,
		float64(rep.Host.SchedLatP50NS)/1e3, float64(rep.Host.SchedLatP99NS)/1e3,
		rep.Host.GoroutineMax)
	return b.String()
}
