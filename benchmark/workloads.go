package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/cgpop"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/wallprof"
)

// repDeadline bounds one job: a hang becomes a typed failure (the context
// trips the world's failure latch) instead of stalling the benchmark.
const repDeadline = 60 * time.Second

// kernelOut is what image 0 reports from one job.
type kernelOut struct {
	virtualS float64 // the kernel's own virtual-time measurement
	check    float64 // must be identical in every job of the workload (cgpop FinalNorm)
	// verify checks the job's output and returns a non-empty description of
	// the first miss.
	verify func() string
}

// workload is one named whole-job configuration. kernel runs on every image
// after the first world barrier; smoke is the np=16 variant the tests run.
type workload struct {
	name      string
	why       string
	np        int
	substrate caf.Substrate
	kernel    func(im *caf.Image) (kernelOut, error)
	smokeNP   int
	smoke     func(im *caf.Image) (kernelOut, error)
}

const (
	fftTol   = 1e-9  // FFT round-trip error bound
	cgpopTol = 1e-10 // CGPOP FinalNorm bound, relative to InitialNorm
)

func raKernel(cfg hpcc.RAConfig) func(*caf.Image) (kernelOut, error) {
	return func(im *caf.Image) (kernelOut, error) {
		res, err := hpcc.RandomAccess(im, cfg)
		if err != nil {
			return kernelOut{}, err
		}
		return kernelOut{virtualS: res.Seconds, verify: func() string {
			if !res.Verified || res.Errors != 0 {
				return fmt.Sprintf("RandomAccess: verified=%v errors=%d, want 0", res.Verified, res.Errors)
			}
			return ""
		}}, nil
	}
}

func fftKernel(cfg hpcc.FFTConfig, tol float64) func(*caf.Image) (kernelOut, error) {
	return func(im *caf.Image) (kernelOut, error) {
		res, err := hpcc.FFT(im, cfg)
		if err != nil {
			return kernelOut{}, err
		}
		return kernelOut{virtualS: res.Seconds, verify: func() string {
			// Negated so a NaN error is a miss too.
			if !res.Verified || !(res.MaxError <= tol) {
				return fmt.Sprintf("FFT: verified=%v round-trip error %.3e, want <= %.1e", res.Verified, res.MaxError, tol)
			}
			return ""
		}}, nil
	}
}

func cgpopKernel(cfg cgpop.Config) func(*caf.Image) (kernelOut, error) {
	return func(im *caf.Image) (kernelOut, error) {
		res, err := cgpop.Run(im, cfg)
		if err != nil {
			return kernelOut{}, err
		}
		return kernelOut{virtualS: res.Seconds, check: res.FinalNorm, verify: func() string {
			if !(res.FinalNorm <= cgpopTol*res.InitialNorm) {
				return fmt.Sprintf("CGPOP: residual %.3e -> %.3e, want final <= %.0e * initial", res.InitialNorm, res.FinalNorm, cgpopTol)
			}
			return ""
		}}, nil
	}
}

// pingpongKernel is the benchmark-owned two-image event ping-pong: the pure
// per-operation software path (notify, release fence, wait, wakeup) with
// nothing linear in P and no queue depth.
func pingpongKernel(trips int) func(*caf.Image) (kernelOut, error) {
	return func(im *caf.Image) (kernelOut, error) {
		if im.N() != 2 {
			return kernelOut{}, fmt.Errorf("pingpong needs 2 images, got %d", im.N())
		}
		ev, err := im.NewEvents(im.World(), 1)
		if err != nil {
			return kernelOut{}, err
		}
		peer := 1 - im.ID()
		first := im.ID() == 0
		t0 := im.Now()
		for i := 0; i < trips; i++ {
			if first {
				if err = ev.Notify(peer, 0); err != nil {
					return kernelOut{}, err
				}
			}
			if err = ev.Wait(0); err != nil {
				return kernelOut{}, err
			}
			if !first {
				if err = ev.Notify(peer, 0); err != nil {
					return kernelOut{}, err
				}
			}
		}
		virtual := im.Now() - t0
		// Every notification was consumed by exactly one wait: a credit
		// left over (or a wait that returned early) shows here.
		extra, err := ev.TryWait(0)
		if err != nil {
			return kernelOut{}, err
		}
		if err = ev.Free(); err != nil {
			return kernelOut{}, err
		}
		// The virtual time of this exchange is a function of the program
		// alone, so it doubles as the value all jobs must agree on.
		return kernelOut{virtualS: virtual, check: virtual, verify: func() string {
			if extra {
				return fmt.Sprintf("pingpong: image %d holds an unconsumed event after %d round trips", im.ID(), trips)
			}
			return ""
		}}, nil
	}
}

// workloads is the benchmark's fixed job list; BENCHMARK.json repeats the
// names and reasons. The kernels take their inputs from their own
// definitions (HPCC's update stream, the FFT test signal, the CGPOP grid), so
// the run seed orders the repetitions and fills probe payloads but never
// changes a job's work.
var workloads = []workload{
	{
		name: "ra-mpi", np: 1024, substrate: caf.MPI,
		why:     "paper Fig 3/4 job on CAF-MPI at np=1024: put+notify floods the fabric wildcard matcher, mpi FLUSH_ALL scan and park/unpark",
		kernel:  raKernel(hpcc.RAConfig{TableBits: 10, UpdatesPerImage: 1024, Verify: true}),
		smokeNP: 16, smoke: raKernel(hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 256, Verify: true}),
	},
	{
		name: "ra-gasnet", np: 1024, substrate: caf.GASNet,
		why:     "same RandomAccess on CAF-GASNet: same fabric, gasnet AM path instead of mpi; an mpi-only change must not move it",
		kernel:  raKernel(hpcc.RAConfig{TableBits: 10, UpdatesPerImage: 1024, Verify: true}),
		smokeNP: 16, smoke: raKernel(hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 256, Verify: true}),
	},
	{
		name: "fft-mpi", np: 256, substrate: caf.MPI,
		why:     "FFT 2^20 at np=256 on CAF-MPI: three bulk all-to-alls through native mpi.Alltoall plus real butterfly compute; hardly the event path",
		kernel:  fftKernel(hpcc.FFTConfig{LogSize: 20, Verify: true}, fftTol),
		smokeNP: 16, smoke: fftKernel(hpcc.FFTConfig{LogSize: 12, Verify: true}, fftTol),
	},
	{
		name: "fft-gasnet", np: 256, substrate: caf.GASNet,
		why:     "same FFT on CAF-GASNet: core's hand-rolled collectives do the all-to-all over AMs/puts, so core/coll.go and gasnet medium/long AMs dominate",
		kernel:  fftKernel(hpcc.FFTConfig{LogSize: 20, Verify: true}, fftTol),
		smokeNP: 16, smoke: fftKernel(hpcc.FFTConfig{LogSize: 12, Verify: true}, fftTol),
	},
	{
		name: "cgpop-push", np: 256, substrate: caf.MPI,
		why:     "CGPOP 512x2048, 120 iterations, PUSH halos at np=256: compute-dominated stencil with put halos and one mpi.Allreduce per iteration (Fig 2 interop)",
		kernel:  cgpopKernel(cgpop.Config{NX: 512, NY: 2048, Iters: 120}),
		smokeNP: 16, smoke: cgpopKernel(cgpop.Config{NX: 64, NY: 128, Iters: 120}),
	},
	{
		name: "cgpop-pull", np: 256, substrate: caf.MPI,
		why:     "identical CGPOP with PULL halos: the same layers used through gets, so a put-path gain that costs the get path shows here",
		kernel:  cgpopKernel(cgpop.Config{NX: 512, NY: 2048, Iters: 120, Pull: true}),
		smokeNP: 16, smoke: cgpopKernel(cgpop.Config{NX: 64, NY: 128, Iters: 120, Pull: true}),
	},
	{
		name: "pingpong-mpi", np: 2, substrate: caf.MPI,
		why:     "2-image Events.Notify/Wait ping-pong, 500000 round trips: pure per-op path at P=2; every O(P) or sharding optimisation predicts no change here",
		kernel:  pingpongKernel(500000),
		smokeNP: 2, smoke: pingpongKernel(2000),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// repOpts selects how one job is run.
type repOpts struct {
	smoke     bool
	setupOnly bool      // stop after the first world barrier (a set-up sample)
	diag      string    // "", "observe" or "wallprof": the obs plane switched on
	launched  time.Time // when the user started the job; zero means now
}

// repResult is one job's measurements. Err is non-empty when the job is a
// failed operation: a runtime error, the deadline, or a verification miss.
type repResult struct {
	Workload string  `json:"workload"`
	G        int     `json:"gomaxprocs"`
	Err      string  `json:"err,omitempty"`
	SetupS   float64 `json:"setup_s"`   // launch -> image 0 leaves the first world barrier
	HostS    float64 `json:"host_s"`    // first-barrier exit -> RunWorld returns
	VirtualS float64 `json:"virtual_s"` // the kernel's virtual-time result
	Check    float64 `json:"check"`

	// Whole-process cost, filled by the child wrapper (childMain).
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// runtime.MemStats deltas across the RunWorld call.
	AllocMB  float64 `json:"alloc_mb"`
	Mallocs  uint64  `json:"mallocs"`
	GCCycles uint32  `json:"gc_cycles"`

	// Filled when diag == "observe".
	Counters         map[string]int64 `json:"counters,omitempty"`
	ObsBytesPerImage int64            `json:"obs_bytes_per_image,omitempty"`

	// Image 0's phases as host-clock offsets from launch, for the span tree.
	KernelEndS float64 `json:"kernel_end_s"` // image 0's kernel returned
	VerifyEndS float64 `json:"verify_end_s"` // image 0 checked its result
	EndS       float64 `json:"end_s"`        // RunWorld returned
}

// runRep runs one job in this process and measures it.
func runRep(w workload, opt repOpts) repResult {
	res := repResult{Workload: w.name, G: runtime.GOMAXPROCS(0)}
	np, kernel := w.np, w.kernel
	if opt.smoke {
		np, kernel = w.smokeNP, w.smoke
	}
	cfg := caf.Config{Substrate: w.substrate}
	switch opt.diag {
	case "":
	case "observe":
		cfg.Diag.Observe = true
	case "wallprof":
		cfg.Diag.WallProf = true
	default:
		res.Err = fmt.Sprintf("unknown diag %q", opt.diag)
		return res
	}
	launched := opt.launched
	if launched.IsZero() {
		launched = hostNow()
	}

	var (
		out        kernelOut
		afterSetup time.Time
		kernelEnd  time.Time
		verifyEnd  time.Time
	)
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	world, err := caf.RunWorldContext(ctx, np, cfg, func(im *caf.Image) error {
		if err := im.World().Barrier(); err != nil {
			return err
		}
		if im.ID() == 0 {
			afterSetup = hostNow()
		}
		if opt.setupOnly {
			return nil
		}
		o, err := kernel(im)
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			kernelEnd = hostNow()
		}
		if miss := o.verify(); miss != "" {
			return fmt.Errorf("verification: %s", miss)
		}
		if im.ID() == 0 {
			verifyEnd = hostNow()
			out = o
		}
		return nil
	})
	end := hostNow()
	runtime.ReadMemStats(&after)
	if wp := wallprof.Enabled(world); wp != nil {
		wp.Finish() // stops the plane's host sampler goroutine
	}

	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.Mallocs = after.Mallocs - before.Mallocs
	res.GCCycles = after.NumGC - before.NumGC
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.SetupS = afterSetup.Sub(launched).Seconds()
	res.HostS = end.Sub(afterSetup).Seconds()
	res.EndS = end.Sub(launched).Seconds()
	if !opt.setupOnly {
		res.KernelEndS = kernelEnd.Sub(launched).Seconds()
		res.VerifyEndS = verifyEnd.Sub(launched).Seconds()
		res.VirtualS, res.Check = out.virtualS, out.check
		if !(out.virtualS > 0) {
			res.Err = fmt.Sprintf("kernel reported virtual time %v", out.virtualS)
			return res
		}
	}
	if ow := obs.Enabled(world); ow != nil {
		snap := ow.Snapshot()
		res.Counters = snap.Counters
		res.ObsBytesPerImage = snap.ObsBytesPerImage
	}
	return res
}
