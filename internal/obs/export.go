// Exporters: the merged stats snapshot (aligned text + JSON) and the Chrome
// trace-event / Perfetto timeline keyed by virtual time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"cafmpi/internal/obs/hist"
)

// CommTopK bounds the per-source peer list exported above
// DenseCommThreshold images: the K heaviest destinations by byte count.
const CommTopK = 8

// CommRow summarizes one source image's communication row: aggregate
// totals plus its top-K destinations by bytes. All-zero rows are omitted
// from exports entirely, so the comm section scales with traffic, not with
// world size.
type CommRow struct {
	Src   int        `json:"src"`
	Peers int        `json:"peers"`
	Count int64      `json:"count"`
	Bytes int64      `json:"bytes"`
	Top   []PeerStat `json:"top,omitempty"`
}

// Snapshot is the merged, read-only view of a World's shards, taken after
// sim.World.Run has returned. Counters are summed across images; gauges keep
// the maximum. The dense communication matrices (indexed [src][dst]) are
// only materialized up to DenseCommThreshold images; Comm carries the
// scale-oblivious per-row summaries at every world size.
type Snapshot struct {
	Images           int                `json:"images"`
	EventsRecorded   uint64             `json:"events_recorded"`
	EventsDropped    uint64             `json:"events_dropped"`
	EdgesRecorded    uint64             `json:"edges_recorded"`
	EdgesDropped     uint64             `json:"edges_dropped"`
	ObsBytesPerImage int64              `json:"obs_bytes_per_image"`
	Counters         map[string]int64   `json:"counters"`
	Comm             []CommRow          `json:"comm,omitempty"`
	CommCount        [][]int64          `json:"comm_count,omitempty"`
	CommBytes        [][]int64          `json:"comm_bytes,omitempty"`
	Latency          []LatencyStat      `json:"latency,omitempty"`
	PerImage         []map[string]int64 `json:"per_image,omitempty"`
}

// LatencyStat is the merged latency distribution of one op class
// ("layer/op"), aggregated across images. Quantiles are HDR-bucket upper
// bounds (internal/obs/hist), deterministic for a given sample multiset.
type LatencyStat struct {
	Class string  `json:"class"`
	Count int64   `json:"count"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
	Mean  float64 `json:"mean_ns"`
}

// Snapshot merges all shards into a Snapshot. Call only after the world's
// Run has returned (the run's WaitGroup provides the happens-before edge).
func (w *World) Snapshot() *Snapshot {
	if w == nil {
		return nil
	}
	s := &Snapshot{
		Images:   w.n,
		Counters: make(map[string]int64, int(numCounters)),
	}
	dense := w.n <= DenseCommThreshold
	if dense {
		s.CommCount = make([][]int64, w.n)
		s.CommBytes = make([][]int64, w.n)
	}
	for _, c := range Counters() {
		s.Counters[c.String()] = 0
	}
	for i, sh := range w.shards {
		s.EventsRecorded += sh.Recorded()
		s.EventsDropped += sh.Dropped()
		s.EdgesRecorded += sh.EdgesRecorded()
		s.EdgesDropped += sh.EdgesDropped()
		if mem := sh.MemBytes(); mem > s.ObsBytesPerImage {
			s.ObsBytesPerImage = mem
		}
		entries := sh.CommEntries()
		if dense {
			s.CommCount[i] = make([]int64, w.n)
			s.CommBytes[i] = make([]int64, w.n)
			for _, e := range entries {
				s.CommCount[i][e.Dst] = e.Count
				s.CommBytes[i][e.Dst] = e.Bytes
			}
		}
		if row := commRow(i, entries); row.Peers > 0 {
			s.Comm = append(s.Comm, row)
		}
		for _, c := range Counters() {
			v := sh.counters[c]
			if c.IsGauge() {
				if v > s.Counters[c.String()] {
					s.Counters[c.String()] = v
				}
			} else {
				s.Counters[c.String()] += v
			}
		}
	}
	if v := s.Counters[CtrObsBytesPerImage.String()]; s.ObsBytesPerImage > v {
		s.Counters[CtrObsBytesPerImage.String()] = s.ObsBytesPerImage
	}
	// Latency rows in (layer, op) declaration order: deterministic without
	// sorting by value.
	for l := Layer(0); l < numLayers; l++ {
		for op := Op(0); op < numOps; op++ {
			merged := hist.New()
			for _, sh := range w.shards {
				merged.Merge(sh.hists[l][op])
			}
			if merged.Count() == 0 {
				continue
			}
			s.Latency = append(s.Latency, LatencyStat{
				Class: l.String() + "/" + op.String(),
				Count: merged.Count(),
				P50:   merged.Quantile(0.50),
				P90:   merged.Quantile(0.90),
				P99:   merged.Quantile(0.99),
				Max:   merged.Max(),
				Mean:  merged.Mean(),
			})
		}
	}
	return s
}

// LatencyText renders the per-op-class latency distributions as an aligned
// table (virtual nanoseconds).
func (s *Snapshot) LatencyText() string {
	if s == nil {
		return "(observability disabled)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %10s %10s %12s\n",
		"op class", "count", "p50_ns", "p90_ns", "p99_ns", "max_ns", "mean_ns")
	for _, r := range s.Latency {
		fmt.Fprintf(&b, "%-22s %10d %10d %10d %10d %10d %12.1f\n",
			r.Class, r.Count, r.P50, r.P90, r.P99, r.Max, r.Mean)
	}
	if len(s.Latency) == 0 {
		b.WriteString("(no events recorded)\n")
	}
	return b.String()
}

// Text renders the counter registry as an aligned table, nonzero entries
// first in declaration order, zero entries summarized.
func (s *Snapshot) Text() string {
	if s == nil {
		return "(observability disabled)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "images: %d   events: %d recorded, %d dropped\n",
		s.Images, s.EventsRecorded, s.EventsDropped)
	fmt.Fprintf(&b, "%-24s %14s\n", "counter", "value")
	zeros := 0
	for _, c := range Counters() {
		v := s.Counters[c.String()]
		if v == 0 {
			zeros++
			continue
		}
		kind := ""
		if c.IsGauge() {
			kind = "  (max)"
		}
		fmt.Fprintf(&b, "%-24s %14d%s\n", c.String(), v, kind)
	}
	if zeros > 0 {
		fmt.Fprintf(&b, "(%d counters at zero omitted)\n", zeros)
	}
	return b.String()
}

// commRow builds the bounded summary of one shard's comm row from its
// entries: totals over every peer, plus the CommTopK heaviest destinations
// by bytes (ties broken by rank for determinism). It reorders entries.
func commRow(src int, entries []PeerStat) CommRow {
	row := CommRow{Src: src, Peers: len(entries)}
	for _, e := range entries {
		row.Count += e.Count
		row.Bytes += e.Bytes
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Bytes != entries[j].Bytes {
			return entries[i].Bytes > entries[j].Bytes
		}
		return entries[i].Dst < entries[j].Dst
	})
	if len(entries) > CommTopK {
		entries = entries[:CommTopK]
	}
	row.Top = entries
	return row
}

// CommMatrixText renders the communication matrix as aligned text. Up to
// DenseCommThreshold images it is the familiar full N×N dump (rows are
// sources, columns destinations, zero rows skipped); beyond that it is one
// summary line per active source with its top-K destinations, so the output
// is bounded by traffic rather than by P².
func (s *Snapshot) CommMatrixText() string {
	if s == nil {
		return "(observability disabled)\n"
	}
	var b strings.Builder
	if s.CommCount != nil {
		render := func(title string, m [][]int64) {
			fmt.Fprintf(&b, "%s (rows: src, cols: dst; zero rows skipped)\n", title)
			fmt.Fprintf(&b, "%6s", "")
			for d := 0; d < s.Images; d++ {
				fmt.Fprintf(&b, " %10d", d)
			}
			b.WriteByte('\n')
			skipped := 0
			for src, row := range m {
				zero := true
				for _, v := range row {
					if v != 0 {
						zero = false
						break
					}
				}
				if zero {
					skipped++
					continue
				}
				fmt.Fprintf(&b, "%6d", src)
				for _, v := range row {
					fmt.Fprintf(&b, " %10d", v)
				}
				b.WriteByte('\n')
			}
			if skipped > 0 {
				fmt.Fprintf(&b, "(%d all-zero rows skipped)\n", skipped)
			}
		}
		render("comm matrix: ops", s.CommCount)
		render("comm matrix: bytes", s.CommBytes)
		return b.String()
	}
	fmt.Fprintf(&b, "comm summary: %d images, %d active sources (top-%d peers per source)\n",
		s.Images, len(s.Comm), CommTopK)
	for _, row := range s.Comm {
		fmt.Fprintf(&b, "%6d  peers=%-6d ops=%-10d bytes=%-12d top:", row.Src, row.Peers, row.Count, row.Bytes)
		for _, p := range row.Top {
			fmt.Fprintf(&b, " %d(%d ops,%dB)", p.Dst, p.Count, p.Bytes)
		}
		b.WriteByte('\n')
	}
	if len(s.Comm) == 0 {
		b.WriteString("(no communication recorded)\n")
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; ts/dur in microseconds). Perfetto and chrome://tracing both load
// the {"traceEvents": [...]} object form.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// FlowEvent is one endpoint of a Perfetto flow arrow overlaid on the trace
// (the critical-path profiler emits one flow per cross-image hop). Start
// marks the flow origin ("s"); otherwise it is the flow end ("f").
type FlowEvent struct {
	ID    int
	Image int
	T     int64 // virtual ns
	Start bool
	Name  string
}

// WriteChromeTrace writes the retained events of every image as Chrome
// trace-event JSON keyed by virtual time: one pid for the simulated job, one
// tid ("image N" thread) per image. Open the file in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func (w *World) WriteChromeTrace(out io.Writer) error {
	return w.WriteChromeTraceFlows(out, nil)
}

// WriteChromeTraceFlows is WriteChromeTrace with flow arrows overlaid —
// Perfetto renders each (ID-matched "s"/"f" pair) as an arrow between the
// two images' timelines.
func (w *World) WriteChromeTraceFlows(out io.Writer, flows []FlowEvent) error {
	if w == nil {
		return fmt.Errorf("obs: observability not enabled")
	}
	evs := make([]chromeEvent, 0, 64)
	for i := 0; i < w.n; i++ {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("image %d", i)},
		})
	}
	for i, sh := range w.shards {
		for _, e := range sh.Events() {
			args := map[string]any{"bytes": e.Bytes, "tag": e.Tag}
			if e.Peer >= 0 {
				args["peer"] = e.Peer
			}
			evs = append(evs, chromeEvent{
				Name: e.Op.String(),
				Cat:  e.Layer.String(),
				Ph:   "X",
				Ts:   float64(e.Start) / 1e3, // virtual ns → µs
				Dur:  float64(e.End-e.Start) / 1e3,
				Pid:  1,
				Tid:  i,
				Args: args,
			})
		}
	}
	for _, f := range flows {
		ph, bp := "s", ""
		if !f.Start {
			ph, bp = "f", "e"
		}
		name := f.Name
		if name == "" {
			name = "critpath"
		}
		evs = append(evs, chromeEvent{
			Name: name, Cat: "critpath", Ph: ph,
			Ts: float64(f.T) / 1e3, Pid: 1, Tid: f.Image,
			ID: fmt.Sprintf("%d", f.ID), Bp: bp,
		})
	}
	// Fully-ordered sort (timestamp, image, phase, name, duration, flow id)
	// keeps the export byte-deterministic for a given set of events, so two
	// identical runs diff cleanly; viewers do not require any ordering.
	sort.SliceStable(evs, func(a, b int) bool {
		ea, eb := &evs[a], &evs[b]
		if ea.Ts != eb.Ts {
			return ea.Ts < eb.Ts
		}
		if ea.Tid != eb.Tid {
			return ea.Tid < eb.Tid
		}
		if ea.Ph != eb.Ph {
			return ea.Ph < eb.Ph
		}
		if ea.Name != eb.Name {
			return ea.Name < eb.Name
		}
		if ea.Dur != eb.Dur {
			return ea.Dur < eb.Dur
		}
		return ea.ID < eb.ID
	})
	enc := json.NewEncoder(out)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ns",
	})
}
