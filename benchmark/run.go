package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"
)

// One run measures one workload: `--trace 0` gives the end-to-end metrics
// from untraced jobs, `--trace 1` the per-layer metrics from a traced run
// plus the layer probes. End-to-end numbers never come from a traced run.

// setupSamples is how many set-up-only jobs (boot to the first world
// barrier, then exit) an untraced run adds to its full jobs, so setup_s is a
// median of several set-ups even when only one full job fits the run.
const setupSamples = 4

// hostCPUs is the most threads any job may load: jobs run at
// GOMAXPROCS=hostCPUs and at GOMAXPROCS=1.
func hostCPUs() int { return min(runtime.NumCPU(), 4) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one run, printed in the contract's form.
type runResult struct {
	Workload  string            `json:"-"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples keeps every job's value behind each end-to-end median, for
	// the suite's min/max/count columns.
	Samples map[string][]float64 `json:"-"`
	probe   map[string]bool      // metrics that came from the layer probes
	check   float64              // the jobs' common check value (CGPOP's final residual)
}

// runner carries the state of one run.
type runner struct {
	w      workload
	smoke  bool
	tr     *tracer // nil unless this is a traced run
	root   int     // the run's root span
	res    runResult
	checks []float64 // every job's cross-job check value
}

func newRunner(w workload, smoke bool) *runner {
	return &runner{w: w, smoke: smoke, res: runResult{
		Workload: w.name, Metrics: make(map[string]metric), Samples: make(map[string][]float64),
		probe: make(map[string]bool),
	}}
}

// job runs one job in a child, counts it as an attempted operation, and
// reports a failure on standard error. ok is false for a failed job.
func (r *runner) job(g int, opt repOpts) (rep repResult, ok bool) {
	opt.smoke = r.smoke
	rep, start, end := spawnRep(r.w, g, opt)
	r.res.Attempted++
	if rep.Err != "" {
		r.res.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s (GOMAXPROCS=%d %s): FAILED: %s\n", r.w.name, g, opt.diag, rep.Err)
		return rep, false
	}
	if !opt.setupOnly {
		r.checks = append(r.checks, rep.Check)
	}
	if r.tr != nil {
		r.jobSpans(rep, opt, start, end)
	}
	return rep, true
}

// jobSpans records the child's life as a job span with image 0's phases
// beneath it.
func (r *runner) jobSpans(rep repResult, opt repOpts, start, end time.Time) {
	name := "job"
	if opt.diag != "" {
		name += "." + opt.diag
	}
	at := func(s float64) time.Time { return start.Add(time.Duration(s * float64(time.Second))) }
	id := r.tr.add(name, r.w.name, start, end, r.root)
	r.tr.add("setup", r.w.name, start, at(rep.SetupS), id)
	r.tr.add("kernel", r.w.name, at(rep.SetupS), at(rep.KernelEndS), id)
	r.tr.add("verify", r.w.name, at(rep.KernelEndS), at(rep.VerifyEndS), id)
	r.tr.add("teardown", r.w.name, at(rep.VerifyEndS), at(rep.EndS), id)
}

// checkAgreement fails the run when jobs of one workload disagree on their
// check value: the ping-pong's virtual time and CGPOP's final residual are
// functions of the program alone.
func (r *runner) checkAgreement() {
	if len(r.checks) > 0 {
		r.res.check = r.checks[0]
	}
	for _, c := range r.checks {
		if c != r.checks[0] {
			r.res.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: jobs disagree on their check value: %v\n", r.w.name, r.checks)
			return
		}
	}
}

func (r *runner) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) setMedian(name string, samples []float64, unit string) {
	r.res.Samples[name] = samples
	r.set(name, median(samples), unit)
}

func (r *runner) finish() runResult {
	r.checkAgreement()
	r.res.Correct = r.res.Failed == 0
	return r.res
}

// runUntraced measures the end-to-end metrics: set-up samples, then pairs
// of jobs (one at GOMAXPROCS=hostCPUs, one at 1, in seeded order) until
// another pair would overrun `seconds`. Each metric is the median over its
// jobs.
func runUntraced(w workload, seed int64, seconds float64, smoke bool) runResult {
	r := newRunner(w, smoke)
	rng := rand.New(rand.NewSource(seed))
	g := hostCPUs()
	began := hostNow()
	var setup, host, serial, rss []float64

	for i := 0; i < setupSamples; i++ {
		rep, ok := r.job(g, repOpts{setupOnly: true})
		if !ok {
			return r.finish()
		}
		setup = append(setup, rep.SetupS)
	}
	for {
		pairBegan := hostNow()
		// On a one-CPU host both jobs run at GOMAXPROCS=1 and still fill
		// their own metric.
		order := []struct {
			procs  int
			serial bool
		}{{g, false}, {1, true}}
		if rng.Intn(2) == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, o := range order {
			rep, ok := r.job(o.procs, repOpts{})
			if !ok {
				return r.finish()
			}
			if o.serial {
				serial = append(serial, rep.HostS)
				continue
			}
			host = append(host, rep.HostS)
			setup = append(setup, rep.SetupS)
			rss = append(rss, rep.PeakRSSMB)
		}
		if secondsSince(began)+secondsSince(pairBegan) > seconds {
			break
		}
	}
	r.setMedian("setup_s", setup, "s")
	r.setMedian("host_s", host, "s")
	r.setMedian("serial_host_s", serial, "s")
	r.setMedian("peak_rss_mb", rss, "MB")
	return r.finish()
}

// runTraced measures the per-layer metrics: one untraced job at each
// GOMAXPROCS for reference, one with Diag.Observe and one with Diag.WallProf,
// then the layer probes. Spans go to tr.
func runTraced(w workload, seed int64, smoke bool, tr *tracer) runResult {
	r := newRunner(w, smoke)
	r.tr = tr
	g := hostCPUs()
	runStart := hostNow()
	r.root = tr.add("run", w.name, runStart, runStart, 0)
	defer tr.endNow(r.root)

	plain, ok := r.job(g, repOpts{})
	if !ok {
		return r.finish()
	}
	serial, ok := r.job(1, repOpts{})
	if !ok {
		return r.finish()
	}
	observed, ok := r.job(g, repOpts{diag: "observe"})
	if !ok {
		return r.finish()
	}
	profiled, ok := r.job(g, repOpts{diag: "wallprof"})
	if !ok {
		return r.finish()
	}

	for _, b := range probeBatches {
		var rep probeReport
		args := []string{"-probes", b.layer, "-seed", strconv.FormatInt(seed, 10)}
		if smoke {
			args = append(args, "-smoke")
		}
		start, end, err := spawnChild(1, args, &rep)
		if err != nil {
			rep = probeReport{Attempted: 1, Failed: []string{err.Error()}}
		}
		tr.add("probe."+b.layer, w.name, start, end, r.root)
		r.res.Attempted += rep.Attempted
		r.res.Failed += len(rep.Failed)
		for _, f := range rep.Failed {
			fmt.Fprintf(os.Stderr, "benchmark: probe FAILED: %s\n", f)
		}
		for name, m := range rep.Metrics {
			r.res.Metrics[name] = m
			r.res.probe[name] = true
		}
	}

	// sim: the engine as a whole. Virtual time is a per-layer metric until
	// it repeats (ROADMAP item 1); the obs planes are clock-pure, so their
	// jobs count as further samples of it.
	virtual := []float64{plain.VirtualS, observed.VirtualS, profiled.VirtualS}
	lo, hi := virtual[0], virtual[0]
	for _, v := range virtual {
		lo, hi = min(lo, v), max(hi, v)
	}
	r.set("sim.virtual_s", plain.VirtualS, "s")
	r.set("sim.virtual_spread", (hi-lo)/median(virtual), "ratio")
	r.set("sim.speedup", serial.HostS/plain.HostS, "ratio")
	r.set("sim.cpu_s", plain.CPUS, "s")

	// Traced counts, read from the Observe job's obs snapshot.
	c := observed.Counters
	msgs := float64(c["msgs_sent"])
	r.set("fabric.msgs", msgs, "count")
	r.set("fabric.bytes", float64(c["bytes_sent"]), "bytes")
	r.set("fabric.polls", float64(c["polls"]), "count")
	r.set("fabric.unexpected_queue_max", float64(c["unexpected_queue_max"]), "count")
	r.set("fabric.host_ns_per_msg", serial.HostS*1e9/msgs, "ns")
	r.set("mpi.flushall_calls", float64(c["flushall_calls"]), "count")
	r.set("mpi.flushall_scanned_ops", float64(c["flushall_scanned_ops"]), "count")
	r.set("mpi.rdma_puts", float64(c["rdma_puts"]), "count")
	r.set("mpi.rdma_gets", float64(c["rdma_gets"]), "count")
	r.set("gasnet.ams_sent", float64(c["ams_sent"]), "count")
	r.set("gasnet.srq_stalls", float64(c["srq_stalls"]), "count")

	// obs: what switching a plane on costs, against the untraced job.
	r.set("obs.observe_host_overhead", observed.HostS/plain.HostS-1, "ratio")
	r.set("obs.observe_rss_overhead", observed.PeakRSSMB/plain.PeakRSSMB-1, "ratio")
	r.set("obs.bytes_per_image", float64(observed.ObsBytesPerImage), "bytes")
	r.set("obs.wallprof_host_overhead", profiled.HostS/plain.HostS-1, "ratio")

	// caf: the whole stack's allocation behaviour in the untraced job.
	r.set("caf.alloc_mb", plain.AllocMB, "MB")
	r.set("caf.mallocs", float64(plain.Mallocs), "count")
	r.set("caf.gc_cycles", float64(plain.GCCycles), "count")
	r.set("caf.mallocs_per_msg", float64(plain.Mallocs)/msgs, "count")

	// Sizing aid: at GOMAXPROCS=1 a faster operation saves at most (its
	// ns/op x its traced count) of serial_host_s. Probes taken at P=8 and
	// P=1024 are interpolated to the workload's world size. Estimates from
	// isolated operations, not measurements of the job.
	ns := func(name string) float64 { return r.res.Metrics[name].Value }
	np := float64(w.np)
	if smoke {
		np = float64(w.smokeNP)
	}
	atNP := func(name string) float64 {
		p8, p1024 := ns(name+".p8"), ns(name+".p1024")
		return p8 + (p1024-p8)*min(max((np-8)/(1024-8), 0), 1)
	}
	share := func(hostNS float64) float64 { return hostNS / (serial.HostS * 1e9) }
	r.set("fabric.est_share", share(msgs*(ns("fabric.sendrecv_ns")/2+atNP("fabric.wildcard_take_ns")-ns("fabric.wildcard_take_ns.p8"))), "ratio")
	r.set("mpi.est_share", share(float64(c["flushall_calls"])*atNP("mpi.flushall_ns")+
		float64(c["rdma_puts"])*ns("mpi.put_flush_ns")+float64(c["rdma_gets"])*ns("mpi.get_flush_ns")), "ratio")
	r.set("gasnet.est_share", share(float64(c["ams_sent"])*ns("gasnet.am_roundtrip_ns")/2), "ratio")
	return r.finish()
}
