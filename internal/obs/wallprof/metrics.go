package wallprof

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// HostStats is the run's Go-runtime health summary: how much host time the
// collector stole, how long runnable goroutines waited for a P, and how
// wide the goroutine population got. All values are deltas/extrema over
// the Enable→Finish window.
type HostStats struct {
	WallNS        int64 `json:"wall_ns"`          // Enable→Finish host span
	GCPauseNS     int64 `json:"gc_pause_ns"`      // summed stop-the-world pauses
	NumGC         int64 `json:"num_gc"`           // completed GC cycles
	SchedLatP50NS int64 `json:"sched_lat_p50_ns"` // median runnable-wait
	SchedLatP99NS int64 `json:"sched_lat_p99_ns"` // tail runnable-wait
	GoroutineMax  int64 `json:"goroutines_max"`   // peak live goroutines as images boot
	GOMAXPROCS    int   `json:"gomaxprocs"`
}

const metricSchedLat = "/sched/latencies:seconds"

// hostSampler snapshots runtime/metrics at Enable and computes deltas at
// stop. It runs no goroutine of its own: a periodic waker would reorder
// the images' run queue, and virtual time depends on host interleaving.
// The goroutine high-water is read by each image as it boots, when every
// image goroutine is alive.
type hostSampler struct {
	startMem   runtime.MemStats
	startSched metrics.Float64Histogram
	goroMax    atomic.Int64
}

func readSchedHist() metrics.Float64Histogram {
	s := []metrics.Sample{{Name: metricSchedLat}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return metrics.Float64Histogram{}
	}
	h := s[0].Value.Float64Histogram()
	// Copy: the runtime may reuse the backing arrays on the next Read.
	cp := metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
	return cp
}

func startHostSampler() *hostSampler {
	hs := &hostSampler{}
	runtime.ReadMemStats(&hs.startMem)
	hs.startSched = readSchedHist()
	hs.noteGoroutines()
	return hs
}

// noteGoroutines raises the goroutine high-water to the current count.
func (hs *hostSampler) noteGoroutines() {
	g := int64(runtime.NumGoroutine())
	for cur := hs.goroMax.Load(); g > cur && !hs.goroMax.CompareAndSwap(cur, g); cur = hs.goroMax.Load() {
	}
}

// stop returns the window's deltas. World.Finish calls it once.
func (hs *hostSampler) stop() HostStats {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	p50, p99 := histDeltaPercentiles(hs.startSched, readSchedHist(), 0.50, 0.99)
	return HostStats{
		GCPauseNS:     int64(end.PauseTotalNs - hs.startMem.PauseTotalNs),
		NumGC:         int64(end.NumGC - hs.startMem.NumGC),
		SchedLatP50NS: p50,
		SchedLatP99NS: p99,
		GoroutineMax:  hs.goroMax.Load(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
}

// histDeltaPercentiles computes percentiles over the events that landed
// between two cumulative Float64Histogram snapshots. Buckets has one more
// entry than Counts (bucket i spans [Buckets[i], Buckets[i+1])); the
// reported value is the bucket's finite upper bound in nanoseconds, which
// over-reports by at most one bucket width — fine for a health gauge.
func histDeltaPercentiles(start, end metrics.Float64Histogram, qs ...float64) (int64, int64) {
	if len(end.Counts) == 0 || len(end.Buckets) != len(end.Counts)+1 {
		return 0, 0
	}
	delta := make([]uint64, len(end.Counts))
	var total uint64
	for i := range delta {
		d := end.Counts[i]
		if i < len(start.Counts) && start.Counts[i] <= d {
			d -= start.Counts[i]
		}
		delta[i] = d
		total += d
	}
	if total == 0 {
		return 0, 0
	}
	vals := make([]int64, len(qs))
	for qi, q := range qs {
		target := uint64(float64(total) * q)
		var cum uint64
		for i, d := range delta {
			cum += d
			if cum > target {
				ub := end.Buckets[i+1]
				if math.IsInf(ub, 1) {
					ub = end.Buckets[i] // +Inf bucket: fall back to its lower bound
				}
				vals[qi] = int64(ub * 1e9)
				break
			}
		}
	}
	return vals[0], vals[1]
}
