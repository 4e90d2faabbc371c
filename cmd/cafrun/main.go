// Command cafrun launches one of the bundled CAF applications on a
// simulated machine, on either runtime substrate.
//
// Usage:
//
//	cafrun -app ra|fft|hpl|cgpop|racedemo -np 16 -substrate mpi|gasnet \
//	       [-platform fusion|edison|mira] [-sparse-flush] [-trace] [-sanitize] [app flags]
//
// Examples:
//
//	cafrun -app ra -np 64 -substrate gasnet -ra-bits 10
//	cafrun -app fft -np 16 -substrate mpi -fft-log 16 -trace
//	cafrun -app cgpop -np 8 -cg-pull
//	cafrun -app racedemo -np 2 -sanitize   # exits 1 with a data-race finding
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/metrics"
	hostpprof "runtime/pprof"
	"sort"

	"cafmpi/caf"
	"cafmpi/internal/cgpop"
	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/critpath"
	"cafmpi/internal/obs/flightrec"
	"cafmpi/internal/obs/wallprof"
	"cafmpi/internal/rtmpi"
	"cafmpi/internal/sanitizer"
	"cafmpi/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "ra", "application: ra | fft | hpl | hpl2d | cgpop | racedemo")
		np       = flag.Int("np", 8, "number of images")
		sub      = flag.String("substrate", "mpi", "runtime substrate: mpi | gasnet")
		platform = flag.String("platform", "fusion", "platform preset")
		trc      = flag.Bool("trace", false, "print the per-category time decomposition")
		verify   = flag.Bool("verify", true, "run the application's self-verification")
		rflush   = flag.Bool("rflush", false, "CAF-MPI: use the proposed MPI_WIN_RFLUSH in the notify fence (§5)")
		atomicEv = flag.Bool("atomic-events", false, "CAF-MPI: use the §3.4 FETCH_AND_OP/CAS event design")
		noSRQ    = flag.Bool("nosrq", false, "disable the GASNet SRQ model (CAF-GASNet-NOSRQ)")
		sparse   = flag.Bool("sparse-flush", false, "scalable-sync mode: dirty-peer flush tracking, on-demand per-peer state, hierarchical collectives (equivalent to -platform <name>-sparse)")

		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline (load in Perfetto) to this file")
		stats      = flag.Bool("stats", false, "print the aggregated runtime counter snapshot after the run")
		commMatrix = flag.Bool("comm-matrix", false, "print the N x N communication matrix after the run")
		obsRing    = flag.Int("obs-ring", 0, "per-image event ring capacity (default obs.DefaultRingCap)")
		critPath   = flag.Bool("critpath", false, "reconstruct the virtual-time critical path and print the blame table (flows overlay -trace-out)")
		histFlag   = flag.Bool("hist", false, "print per-op-class latency histograms (p50/p90/p99/max)")
		sanitize   = flag.Bool("sanitize", false, "run the PGAS synchronization sanitizer; exit 1 if it finds unordered conflicting accesses or RMA misuse")
		faultsSpec = flag.String("faults", "", "deterministic fault plan: a JSON plan file, \"canonical\" (the 1%-drop chaos plan), or \"canonical:SEED\"")
		faultLog   = flag.Bool("fault-log", false, "print the injected-fault decision log after the run (implies reproducible ordering)")
		postmortem = flag.String("postmortem-out", "", "arm the crash-triggered flight recorder: write a deterministic signature-stamped bundle under this directory when an image crashes or the job fails")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) and dump runtime/metrics after the run")
		wallprofOn = flag.Bool("wallprof", false, "host-time profiling plane: CPU-profile samples bucketed per component, with a host-vs-virtual divergence report (clock-pure: it never advances a virtual clock)")
		wallOut    = flag.String("wallprof-out", "", "write cpu.pprof, mutex.pprof, block.pprof and wallprof.json into this directory (implies -wallprof)")
		wallCont   = flag.Bool("wallprof-contention", false, "enable mutex/block profiling rates for the run (host-side contention capture; implies -wallprof)")

		raBits    = flag.Int("ra-bits", 10, "ra: log2 of per-image table entries")
		raUpdates = flag.Int("ra-updates", 4096, "ra: updates per image")
		fftLog    = flag.Int("fft-log", 14, "fft: log2 of transform size")
		hplN      = flag.Int("hpl-n", 512, "hpl: matrix order")
		hplNB     = flag.Int("hpl-nb", 16, "hpl: block size")
		cgNX      = flag.Int("cg-nx", 256, "cgpop: grid width")
		cgNY      = flag.Int("cg-ny", 512, "cgpop: grid height")
		cgIters   = flag.Int("cg-iters", 60, "cgpop: solver iterations")
		cgPull    = flag.Bool("cg-pull", false, "cgpop: use PULL halo exchange")
	)
	flag.Parse()

	pf := fabric.Platform(*platform)
	if pf == nil {
		fail("unknown platform %q", *platform)
	}
	if *noSRQ {
		cp := *pf
		cp.GASNet.SRQ.Enabled = false
		pf = &cp
	}
	if *sparse && !pf.SparseSync() {
		pf = fabric.SparseVariant(pf)
	}
	if *pprofAddr != "" {
		// The profiling endpoint observes the real (host) process — goroutine
		// stacks, heap, CPU — while the simulated job runs.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "cafrun: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof: serving http://%s/debug/pprof/\n", *pprofAddr)
	}
	wallprofEnabled := *wallprofOn || *wallOut != "" || *wallCont
	// The divergence report needs the virtual-time blame table, so wallprof
	// implies the observability plane.
	observe := *traceOut != "" || *stats || *commMatrix || *critPath || *histFlag || wallprofEnabled
	if *wallCont {
		restore := wallprof.EnableContention()
		defer restore()
	}
	if *wallOut != "" {
		if err := os.MkdirAll(*wallOut, 0o755); err != nil {
			fail("%v", err)
		}
	}
	var plan *faults.Plan
	if *faultsSpec != "" {
		var err error
		if plan, err = faults.LoadSpec(*faultsSpec); err != nil {
			fail("%v", err)
		}
		if err := plan.Validate(*np); err != nil {
			fail("fault plan: %v", err)
		}
	}
	cfg := caf.Config{Substrate: caf.Substrate(*sub), Platform: pf,
		Diag:       caf.Diag{Trace: *trc, Observe: observe, ObsRingCap: *obsRing, Sanitize: *sanitize, Postmortem: *postmortem, WallProf: wallprofEnabled},
		Faults:     plan,
		MPIOptions: rtmpi.Options{UseRflush: *rflush, AtomicEvents: *atomicEv}}

	clocks := make([]int64, *np)
	w, err := caf.RunWorld(*np, cfg, func(im *caf.Image) error {
		defer func() { clocks[im.ID()] = im.Proc().Now() }()
		var summary string
		switch *app {
		case "ra":
			res, err := hpcc.RandomAccess(im, hpcc.RAConfig{
				TableBits: *raBits, UpdatesPerImage: *raUpdates, Verify: *verify})
			if err != nil {
				return err
			}
			summary = fmt.Sprintf("RandomAccess: %.6f GUPS (%d updates in %.6f virtual s; errors=%d)",
				res.GUPS, res.Updates, res.Seconds, res.Errors)
		case "fft":
			res, err := hpcc.FFT(im, hpcc.FFTConfig{LogSize: *fftLog, Verify: *verify})
			if err != nil {
				return err
			}
			summary = fmt.Sprintf("FFT: %.4f GFlop/s (2^%d points in %.6f virtual s; max round-trip error %.2e)",
				res.GFlops, *fftLog, res.Seconds, res.MaxError)
		case "hpl":
			res, err := hpcc.HPL(im, hpcc.HPLConfig{N: *hplN, NB: *hplNB, Verify: *verify})
			if err != nil {
				return err
			}
			summary = fmt.Sprintf("HPL: %.6f TFlop/s (N=%d in %.6f virtual s; scaled residual %.3f)",
				res.TFlops, res.N, res.Seconds, res.Residual)
		case "hpl2d":
			res, err := hpcc.HPL2D(im, hpcc.HPLConfig{N: *hplN, NB: *hplNB, Verify: *verify})
			if err != nil {
				return err
			}
			summary = fmt.Sprintf("HPL2D: %.6f TFlop/s (N=%d in %.6f virtual s; scaled residual %.3f)",
				res.TFlops, res.N, res.Seconds, res.Residual)
		case "cgpop":
			res, err := cgpop.Run(im, cgpop.Config{NX: *cgNX, NY: *cgNY, Iters: *cgIters, Pull: *cgPull})
			if err != nil {
				return err
			}
			mode := "PUSH"
			if *cgPull {
				mode = "PULL"
			}
			summary = fmt.Sprintf("CGPOP(%s): %.6f virtual s for %d iterations; residual %.3e -> %.3e (dual runtime: %v, runtime memory %.1f MB)",
				mode, res.Seconds, res.Iterations, res.InitialNorm, res.FinalNorm,
				res.DualRuntime, float64(res.RuntimeMemory)/(1<<20))
		case "racedemo":
			// Deliberately buggy two-image program (demo for -sanitize): an
			// unsynchronized Put racing the owner's local read.
			co, err := im.AllocCoarray(im.World(), 64)
			if err != nil {
				return err
			}
			if im.ID() == 0 {
				if err := co.Put(1%im.N(), 0, make([]byte, 8)); err != nil {
					return err
				}
			} else if im.ID() == 1 {
				_ = co.ReadLocal(0, 8)
			}
			if err := co.Free(); err != nil {
				return err
			}
			summary = "racedemo: completed (run with -sanitize to see the bug)"
		default:
			return fmt.Errorf("unknown app %q", *app)
		}
		if im.ID() == 0 {
			fmt.Printf("%s x %d images on %s (%s substrate)\n%s\n", *app, im.N(), pf.Name, *sub, summary)
		}
		if *trc {
			// Aggregate the decomposition across images.
			cats := trace.Categories()
			in := make([]float64, len(cats))
			for i, c := range cats {
				in[i] = float64(im.Tracer().Total(c)) * 1e-9
			}
			out := make([]float64, len(cats))
			if err := im.World().Allreduce(caf.F64Bytes(in), caf.F64Bytes(out), caf.Float64, caf.OpSum); err != nil {
				return err
			}
			if im.ID() == 0 {
				fmt.Println("aggregate time decomposition (virtual seconds):")
				for i, c := range cats {
					if out[i] > 0 {
						fmt.Printf("  %-16s %12.6f\n", c, out[i])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		// The flight recorder already dumped (core's latch hook fires before
		// RunWorld returns); Dump here just re-resolves the bundle path.
		if rec := flightrec.Armed(w); rec != nil {
			if dir, derr := rec.Dump(w, err); derr == nil && dir != "" {
				fmt.Fprintf(os.Stderr, "cafrun: postmortem bundle: %s\n", dir)
			}
		}
		// A crashed run is when the decision log matters most: print it (and
		// the hash that names the bundle) before exiting.
		if st := faults.Enabled(w); *faultLog && st.Active() {
			evs := st.Log()
			for _, ev := range evs {
				fmt.Println(ev.String())
			}
			fmt.Printf("signature_hash: %s\n", faults.SignatureHash(evs))
		}
		if *wallOut != "" {
			// The plane finished when the run returned, so a failed job's
			// profile is complete too.
			writeCPUProfile(*wallOut, wallprof.Enabled(w))
		}
		fail("%v", err)
	}

	if ow := obs.Enabled(w); ow != nil {
		// Post-run gauges must land before the snapshot is taken: the
		// sanitizer's self-metered shadow-state footprint and the wallprof
		// host metrics are volatile gauges merged by max into shard 0.
		wpw := wallprof.Enabled(w)
		wpw.DepositGauges(ow)
		if sw := sanitizer.Enabled(w); sw != nil {
			ow.Shard(0).Max(obs.CtrSanBytesPerImage, sw.MemMaxBytes())
		}
		snap := ow.Snapshot()
		var rep *critpath.Report
		if *critPath || wpw != nil {
			rep = critpath.Analyze(ow, clocks)
			if *critPath {
				fmt.Print(rep.BlameTable())
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail("%v", err)
			}
			if err := ow.WriteChromeTraceFlows(f, rep.Flows()); err != nil {
				f.Close()
				fail("writing %s: %v", *traceOut, err)
			}
			if err := f.Close(); err != nil {
				fail("writing %s: %v", *traceOut, err)
			}
			retained := snap.EventsRecorded - snap.EventsDropped
			fmt.Printf("wrote %d events to %s (%d recorded, %d dropped; load in Perfetto / chrome://tracing)\n",
				retained, *traceOut, snap.EventsRecorded, snap.EventsDropped)
			if n := len(rep.Flows()); n > 0 {
				fmt.Printf("overlaid %d critical-path flow arrows\n", n/2)
			}
		}
		if *histFlag {
			fmt.Print(snap.LatencyText())
		}
		if *stats {
			fmt.Print(snap.Text())
		}
		if *commMatrix {
			fmt.Print(snap.CommMatrixText())
		}
		if wpw != nil {
			var virt map[string]int64
			var finish int64
			if rep != nil {
				virt, finish = rep.ComponentTotals(), rep.FinishNS
			}
			wrep := wpw.Analyze(virt, finish)
			fmt.Print(wrep.Text())
			if *wallOut != "" {
				writeCPUProfile(*wallOut, wpw)
				writeProfile := func(name, file string) {
					p := hostpprof.Lookup(name)
					if p == nil {
						return
					}
					f, err := os.Create(filepath.Join(*wallOut, file))
					if err != nil {
						fail("%v", err)
					}
					if err := p.WriteTo(f, 0); err != nil {
						f.Close()
						fail("writing %s: %v", file, err)
					}
					f.Close()
				}
				writeProfile("mutex", "mutex.pprof")
				writeProfile("block", "block.pprof")
				js, err := json.MarshalIndent(wrep, "", "  ")
				if err != nil {
					fail("%v", err)
				}
				if err := os.WriteFile(filepath.Join(*wallOut, "wallprof.json"), append(js, '\n'), 0o644); err != nil {
					fail("%v", err)
				}
				fmt.Printf("wallprof: wrote cpu.pprof, mutex.pprof, block.pprof, wallprof.json to %s\n", *wallOut)
			}
		}
	}
	if st := faults.Enabled(w); st.Active() {
		evs := st.Log()
		if *faultLog {
			for _, ev := range evs {
				fmt.Println(ev.String())
			}
			// Same line the postmortem bundle's MANIFEST carries, so a live
			// run and a dumped bundle can be matched by eye.
			fmt.Printf("signature_hash: %s\n", faults.SignatureHash(evs))
		}
		fmt.Printf("faults: %d injected (signature %s)\n", len(evs), faults.SignatureHash(evs))
	}
	if *pprofAddr != "" {
		dumpRuntimeMetrics()
	}
	if sw := sanitizer.Enabled(w); sw != nil {
		fmt.Print(sw.Text())
		if sw.Count() > 0 {
			os.Exit(1)
		}
	}
}

// dumpRuntimeMetrics prints the Go runtime/metrics registry (host-process
// metrics, sorted by name for stable diffs).
func dumpRuntimeMetrics() {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	sort.Slice(samples, func(a, b int) bool { return samples[a].Name < samples[b].Name })
	fmt.Println("runtime/metrics (host process):")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Printf("  %-60s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Printf("  %-60s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var total uint64
			for _, c := range h.Counts {
				total += c
			}
			fmt.Printf("  %-60s histogram, %d samples\n", s.Name, total)
		}
	}
}

// writeCPUProfile writes the plane's CPU profile to dir/cpu.pprof. It
// writes nothing when no profile was taken; the report says why.
func writeCPUProfile(dir string, wp *wallprof.World) {
	prof := wp.CPUProfile()
	if prof == nil {
		return
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cafrun: "+format+"\n", args...)
	os.Exit(1)
}
