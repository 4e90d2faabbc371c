package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every job and the probe set run in a child process of their own: a fresh
// heap per sample, the child's own VmHWM as peak memory, and GOMAXPROCS fixed
// before the Go runtime starts. One child runs at a time, so the benchmark
// never uses more than GOMAXPROCS threads for load.

// childGrace is what the parent allows a child beyond the job deadline
// before killing it.
const childGrace = 30 * time.Second

// childMain is the body of `benchmark child ...`. It prints one JSON object
// on standard output; a failed job is reported in that object, not through
// the exit code.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run one job of")
		batch     = fs.String("probes", "", "layer whose probe batch to run instead of a job")
		diag      = fs.String("diag", "", "obs plane to switch on: observe | wallprof")
		smoke     = fs.Bool("smoke", false, "run the small test size")
		setupOnly = fs.Bool("setup-only", false, "stop after the first world barrier")
		launched  = fs.Int64("launched", 0, "host clock (unix ns) when the parent started this child")
		seed      = fs.Int64("seed", 1, "seed for probe payloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var t0 time.Time
	if *launched != 0 {
		t0 = time.Unix(0, *launched)
	}
	var out any
	if *batch != "" {
		out = runProbes(*batch, *seed, *smoke)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark child: unknown workload %q\n", *name)
			return 2
		}
		res := runRep(w, repOpts{smoke: *smoke, setupOnly: *setupOnly, diag: *diag, launched: t0})
		res.CPUS, res.PeakRSSMB = processCost()
		out = res
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: %v\n", err)
		return 2
	}
	fmt.Println(string(js))
	return 0
}

// processCost returns this process's CPU seconds (user+system) and its peak
// resident set in MiB (VmHWM).
func processCost() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpuS = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return cpuS, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				peakRSSMB = kb / 1024
			}
		}
	}
	return cpuS, peakRSSMB
}

// spawnChild runs this executable as `child <args> -launched <now>` with
// GOMAXPROCS=g and decodes the JSON object it prints into out. It returns
// when the child has exited, with the host times bracketing its life.
func spawnChild(g int, args []string, out any) (start, end time.Time, err error) {
	exe, err := os.Executable()
	if err != nil {
		return start, end, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), repDeadline+childGrace)
	defer cancel()
	start = hostNow()
	argv := append([]string{"child"}, args...)
	argv = append(argv, "-launched", strconv.FormatInt(start.UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, argv...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(g))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	end = hostNow()
	if err != nil {
		return start, end, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), out); err != nil {
		return start, end, fmt.Errorf("child %v: decoding result: %w", args, err)
	}
	return start, end, nil
}

// spawnRep runs one job of w in a child at GOMAXPROCS=g.
func spawnRep(w workload, g int, opt repOpts) (res repResult, start, end time.Time) {
	args := []string{"-workload", w.name}
	if opt.diag != "" {
		args = append(args, "-diag", opt.diag)
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	if opt.setupOnly {
		args = append(args, "-setup-only")
	}
	start, end, err := spawnChild(g, args, &res)
	if err != nil {
		res = repResult{Workload: w.name, G: g, Err: err.Error()}
	}
	return res, start, end
}
