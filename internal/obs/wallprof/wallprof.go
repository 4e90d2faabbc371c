// Package wallprof is the wall-clock performance plane: the host-time
// mirror of the virtual-time critpath profiler. The obs/critpath stack
// answers "where does the *simulated machine* spend its time"; wallprof
// answers "where does the *simulator process* spend the host's time" — the
// question ROADMAP item 2 (parallel fabric sharding) needs answered before
// any host-side optimization round.
//
// Design, mirroring obs's nil-safety contract:
//
//   - Enable creates one world-wide registry (found again by Enabled); when
//     profiling is off every handle is nil and every method on a nil
//     receiver returns immediately, so instrumented hot paths cost a
//     pointer compare.
//   - Each image records into its own *Rec, written only from the image's
//     goroutine — the same ownership discipline as obs.Shard and the
//     virtual clock. Recs are merged (read) only after sim.World.Run
//     returns.
//   - Timers are sampled: a site counts every operation but reads the host
//     clock for one in SampleEvery of them, scaling the measured span back
//     up at report time. The un-sampled fast path is two integer ops, so
//     profiling never perturbs what it measures by more than the sampling
//     duty cycle.
//   - Sampled sections also swap the goroutine's pprof label set to the
//     site's op class (restored on End), so CPU/mutex/block profiles taken
//     while wallprof is on decompose by component and image rank.
//
// This package is the ONE sanctioned home for host-clock reads in
// simulation code: every time.* call below carries a //caflint:allow
// wallclock annotation, and the wallclock analyzer pass still fails the
// build on any un-annotated read added here later. Virtual clocks are
// untouched — wallprof is clock-pure by construction (it never calls
// sim.Proc.Advance), so goldens are bit-exact with it on or off.
package wallprof

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

// Site identifies one instrumented host-time section. Sites are chosen to
// be (close to) non-overlapping so their scaled spans can be subtracted
// from the run's total to form the "app/other" residual.
type Site uint8

// Sites.
const (
	// SiteFabricInject covers fabric Layer.Send: message staging, fault
	// verdicts, NIC claims and the enqueue under the destination endpoint's
	// mutex (the sender-side hot path).
	SiteFabricInject Site = iota
	// SiteFabricAbsorb covers fabric Layer.absorb: match bookkeeping,
	// rendezvous completion, edge recording (the receiver-side hot path).
	SiteFabricAbsorb
	// SiteMPIFlush covers the MPI epoch flush family: Flush, FlushAll,
	// RflushAll, LockAll scan/blame sequences.
	SiteMPIFlush
	// SiteGASNetAM covers GASNet AM handler execution after absorption.
	SiteGASNetAM
	// SiteSanitizer covers sanitizer shadow-cell access checks (the
	// dominant sanitizer cost; clock merges ride the same lock).
	SiteSanitizer
	// SiteApp is the residual: host time not inside any measured site
	// (application compute, scheduler waits, runtime bookkeeping). It is
	// never measured directly — the report derives it by subtraction.
	SiteApp
	numSites
)

var siteNames = [...]string{
	"fabric/inject", "fabric/absorb", "mpi/flush", "gasnet/am",
	"sanitizer", "app/other",
}

func (s Site) String() string {
	if int(s) >= len(siteNames) {
		return "Site(" + strconv.Itoa(int(s)) + ")"
	}
	return siteNames[s]
}

// NumSites is the number of named sites (including the residual).
const NumSites = int(numSites)

// SampleEvery is the sampling duty cycle: one operation in SampleEvery per
// site reads the host clock; the other SampleEvery-1 pay two integer ops.
const SampleEvery = 64

const worldKey = "obs.wallprof"

// base anchors every host-time reading; samples are monotonic offsets from
// process start, so arithmetic on them never sees wall-clock adjustments.
var base = time.Now() //caflint:allow wallclock -- wallprof is the sanctioned host-time measurement plane

// nowNS reads the monotonic host clock. Package-private: all host-time
// measurement funnels through here.
func nowNS() int64 {
	return int64(time.Since(base)) //caflint:allow wallclock -- sampled host timer read
}

// siteAcc is one site's accumulator: every op counted, one in SampleEvery
// timed.
type siteAcc struct {
	ops     uint64 // operations seen
	sampled uint64 // operations timed
	ns      int64  // summed host ns over the sampled operations
}

// Rec is one image's host-time recorder. All methods are nil-safe; non-nil
// Recs must only be used from the owning image's goroutine.
type Rec struct {
	sites   [numSites]siteAcc
	baseCtx context.Context // goroutine's resting pprof label set
	siteCtx [numSites]context.Context
}

// Begin marks the start of a site section. It returns 0 when this
// occurrence is not sampled (or the recorder is nil); pass the result to
// End unconditionally — End is a no-op on 0.
func (r *Rec) Begin(s Site) int64 {
	if r == nil {
		return 0
	}
	a := &r.sites[s]
	a.ops++
	if a.ops%SampleEvery != 0 {
		return 0
	}
	if c := r.siteCtx[s]; c != nil {
		// Sampled section: tag the goroutine with the op class so a
		// concurrent CPU/mutex/block profile decomposes by component.
		pprof.SetGoroutineLabels(c)
	}
	t := nowNS()
	if t <= 0 {
		t = 1
	}
	return t
}

// End closes a sampled section opened by Begin.
func (r *Rec) End(s Site, t0 int64) {
	if r == nil || t0 == 0 {
		return
	}
	a := &r.sites[s]
	a.sampled++
	if d := nowNS() - t0; d > 0 {
		a.ns += d
	}
	if r.baseCtx != nil {
		pprof.SetGoroutineLabels(r.baseCtx)
	}
}

// World is the per-sim.World wallprof registry: one recorder per image plus
// the runtime/metrics host sampler.
type World struct {
	recs    []*Rec
	startNS int64
	sampler *hostSampler
	host    HostStats
	done    bool
}

// Enable returns the world's wallprof registry, creating it on first call.
// Like obs.Enable it must run before the instrumented layers attach
// (core.Boot enables it before constructing the substrate), so layers can
// cache their recorder once. Creating the registry also starts the
// runtime/metrics host sampler; Finish stops it.
func Enable(w *sim.World) *World {
	return w.Shared(worldKey, func() any {
		ww := &World{recs: make([]*Rec, w.N()), startNS: nowNS()}
		for i := range ww.recs {
			ww.recs[i] = &Rec{}
		}
		ww.sampler = startHostSampler()
		return ww
	}).(*World)
}

// Enabled returns the world's registry if Enable was ever called, else nil.
func Enabled(w *sim.World) *World {
	if w == nil {
		return nil
	}
	if v, ok := w.Peek(worldKey); ok {
		return v.(*World)
	}
	return nil
}

// For returns image p's recorder, or nil when wallprof is off.
func For(p *sim.Proc) *Rec {
	return Enabled(p.World()).Rec(p.ID())
}

// Rec returns image i's recorder (nil on a nil registry).
func (ww *World) Rec(i int) *Rec {
	if ww == nil {
		return nil
	}
	return ww.recs[i]
}

// LabelImage tags the calling goroutine — which must be image p's — with
// its pprof identity (caf_image rank) and prebuilds the per-site op-class
// label sets Begin/End swap in around sampled sections. Host profiles
// (CPU, mutex, block) taken while the job runs then decompose by image and
// component.
func LabelImage(p *sim.Proc) {
	ww := Enabled(p.World())
	if ww == nil {
		return
	}
	r := ww.recs[p.ID()]
	ctx := pprof.WithLabels(context.Background(),
		pprof.Labels("caf_image", strconv.Itoa(p.ID())))
	r.baseCtx = ctx
	for s := Site(0); s < numSites; s++ {
		r.siteCtx[s] = pprof.WithLabels(ctx, pprof.Labels("caf_op", s.String()))
	}
	pprof.SetGoroutineLabels(ctx)
}

// Finish stops the host sampler and freezes the run's host metrics. Call
// after sim.World.Run returns (the recs are read-merged by Analyze);
// idempotent.
func (ww *World) Finish() {
	if ww == nil || ww.done {
		return
	}
	ww.done = true
	ww.host = ww.sampler.stop()
	ww.host.WallNS = nowNS() - ww.startNS
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
