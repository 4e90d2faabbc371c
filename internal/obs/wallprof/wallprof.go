// Package wallprof is the host-time profiling plane: the host-time mirror
// of the virtual-time critpath profiler. The obs/critpath stack answers
// "where does the *simulated machine* spend its time"; wallprof answers
// "where does the *simulator process* spend the host's CPU".
//
// While the plane is on, it takes a Go CPU profile (runtime/pprof at its
// default rate, into memory) from Enable to Finish, and snapshots
// runtime/metrics at both ends. Analyze decodes the profile after the run
// and charges each sample to a fixed package → component table (report.go),
// so the shares are sample counts over the total and sum to 100 % by
// construction. No simulation code path carries a hook: the plane costs
// the profiler's signal rate and nothing per operation.
//
// Only one CPU profile can run in a process. When another is already
// running (go test -cpuprofile, a second plane at the same time), the
// plane's report states that error and carries no shares.
//
// Virtual clocks are untouched — wallprof never calls sim.Proc.Advance, so
// goldens are bit-exact with it on or off. Its host-clock reads carry
// //caflint:allow wallclock annotations like any other.
package wallprof

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

const worldKey = "obs.wallprof"

// World is the per-sim.World plane: the run's CPU profile plus the
// runtime/metrics host snapshots.
type World struct {
	start   time.Time
	prof    bytes.Buffer  // the gzipped CPU profile, complete once stopped is closed
	profErr error         // StartCPUProfile's error: no profile was taken
	stopped chan struct{} // closed when StopCPUProfile has returned
	sampler *hostSampler
	host    HostStats
	done    bool
}

// lastStop is the stopped channel of the plane that finished last, so the
// next plane starts its profile after that one's has been written.
var (
	stopMu   sync.Mutex
	lastStop chan struct{}
)

// Enable returns the world's plane, creating it on first call. Creating it
// starts the CPU profile and the host sampler; Finish stops both.
func Enable(w *sim.World) *World {
	return w.Shared(worldKey, func() any {
		stopMu.Lock()
		prev := lastStop
		stopMu.Unlock()
		if prev != nil {
			<-prev
		}
		ww := &World{start: time.Now()} //caflint:allow wallclock -- start of the plane's host window
		ww.profErr = pprof.StartCPUProfile(&ww.prof)
		ww.sampler = startHostSampler()
		return ww
	}).(*World)
}

// Enabled returns the world's plane if Enable was ever called, else nil.
func Enabled(w *sim.World) *World {
	if w == nil {
		return nil
	}
	if v, ok := w.Peek(worldKey); ok {
		return v.(*World)
	}
	return nil
}

// LabelImage tags the calling goroutine — which must be image p's — with
// the pprof label caf_image=<rank>, so the CPU, mutex and block profiles
// taken while the job runs decompose by image. It also records the
// goroutine high-water for HostStats.
func LabelImage(p *sim.Proc) {
	ww := Enabled(p.World())
	if ww == nil {
		return
	}
	ww.sampler.noteGoroutines()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("caf_image", strconv.Itoa(p.ID()))))
}

// Finish stops the CPU profile and the host sampler and freezes the run's
// host metrics. core.RunWorldContext calls it when the world's run
// returns; idempotent. It decodes nothing: that is Analyze's work.
//
// StopCPUProfile waits up to 200 ms for the profile writer's next poll, so
// it runs in the background: the caller's host time does not include that
// wait, and CPUProfile and Analyze wait for it instead.
func (ww *World) Finish() {
	if ww == nil || ww.done {
		return
	}
	ww.done = true
	wall := time.Since(ww.start) //caflint:allow wallclock -- end of the plane's host window
	ww.host = ww.sampler.stop()
	ww.host.WallNS = int64(wall)
	if ww.profErr == nil {
		stopped := make(chan struct{})
		ww.stopped = stopped
		stopMu.Lock()
		lastStop = stopped
		stopMu.Unlock()
		go func() {
			pprof.StopCPUProfile()
			close(stopped)
		}()
	}
}

// CPUProfile returns the run's gzipped pprof CPU profile, or nil when none
// was taken or the plane is not finished.
func (ww *World) CPUProfile() []byte {
	if ww == nil || ww.stopped == nil {
		return nil
	}
	<-ww.stopped
	return ww.prof.Bytes()
}

// Host returns the frozen host metrics (zero value before Finish).
func (ww *World) Host() HostStats {
	if ww == nil {
		return HostStats{}
	}
	return ww.host
}

// DepositGauges publishes the run's host metrics as volatile obs gauges
// (merged by max, quarantined from deterministic artifacts), so the
// flight-recorder bundle and -stats snapshots carry them. Call after
// Finish, after the run — the shard write is single-threaded then.
func (ww *World) DepositGauges(ow *obs.World) {
	if ww == nil || !ww.done || ow == nil || ow.N() == 0 {
		return
	}
	sh := ow.Shard(0)
	sh.Max(obs.CtrHostGCPauseNS, ww.host.GCPauseNS)
	sh.Max(obs.CtrHostSchedLatP99NS, ww.host.SchedLatP99NS)
	sh.Max(obs.CtrHostGoroutineMax, ww.host.GoroutineMax)
}

// EnableContention turns on the Go runtime's mutex and block profiling at
// rates suitable for the wallprof CI job (they are off by default: both
// add per-event host cost). Returns a restore func. Only the dedicated CI
// contention job enables these.
func EnableContention() func() {
	prevMutex := runtime.SetMutexProfileFraction(20)
	runtime.SetBlockProfileRate(100_000) // one sample per 100µs of blocking
	return func() {
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
	}
}
