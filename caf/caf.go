// Package caf is the public face of the Coarray Fortran 2.0 runtime: it
// wires the core runtime (internal/core) to a substrate — MPI-3 (CAF-MPI,
// the paper's contribution) or GASNet (CAF-GASNet, the baseline) — and
// re-exports the CAF 2.0 programming surface: images, teams, coarrays,
// events, asynchronous copies, cofence/finish, function shipping, and team
// collectives.
//
// A minimal program:
//
//	cfg := caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion")}
//	err := caf.Run(8, cfg, func(im *caf.Image) error {
//		co, _ := im.AllocCoarray(im.World(), 1024)
//		if im.ID() == 0 {
//			return co.Put(1, 0, []byte("hello"))
//		}
//		return im.World().Barrier()
//	})
package caf

import (
	"context"
	"fmt"

	"cafmpi/internal/core"
	"cafmpi/internal/elem"
	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
	"cafmpi/internal/mpi"
	"cafmpi/internal/rtgasnet"
	"cafmpi/internal/rtmpi"
	"cafmpi/internal/sim"
)

// Substrate selects the communication layer beneath the CAF runtime.
type Substrate string

// Available substrates.
const (
	MPI    Substrate = "mpi"    // CAF-MPI: the paper's MPI-3 runtime (§3)
	GASNet Substrate = "gasnet" // CAF-GASNet: the original CAF 2.0 baseline
)

// Diag groups the diagnostic subsystems of a job. All of them are off by
// default and clock-pure (they never perturb virtual time), so they can be
// toggled without changing a run's timing results.
type Diag struct {
	// Trace enables per-image time decomposition (Figures 4 and 8).
	Trace bool
	// Observe enables the obs subsystem: per-image event timelines,
	// counters, and the communication matrix across every stack layer. Read
	// the results after the run with obs.Enabled(world) on the world
	// returned by RunWorld.
	Observe bool
	// ObsRingCap overrides the per-image event ring capacity
	// (obs.DefaultRingCap when zero).
	ObsRingCap int
	// Postmortem arms the crash-triggered flight recorder: when an image
	// crashes or the job's failure latch trips, a deterministic
	// signature-stamped bundle (recent events, counters, fault decisions)
	// is written under this directory. Implies Observe.
	Postmortem string
	// Sanitize enables the PGAS synchronization sanitizer: vector-clock
	// happens-before tracking across the runtime's sync points plus shadow
	// access histories on coarray windows, reporting unordered conflicting
	// Put/Get/local accesses and MPI-3 RMA ordering misuse. Clock-pure (no
	// effect on virtual time). Read the findings after the run with
	// sanitizer.Enabled(world) on the world returned by RunWorld.
	Sanitize bool
	// WallProf enables the host-time profiling plane: a CPU profile of the
	// run whose samples are bucketed by runtime component, a caf_image
	// pprof goroutine label, and a runtime/metrics host sampler. The
	// profile is stopped when the run returns. Only one CPU profile runs
	// per process, so a plane that finds another running reports that
	// error instead of shares. Clock-pure. Read the divergence report
	// after the run with wallprof.Enabled(world) on the world returned by
	// RunWorld.
	WallProf bool
}

// Config configures a CAF job.
type Config struct {
	// Substrate picks CAF-MPI or CAF-GASNet. Default: MPI.
	Substrate Substrate
	// Platform selects the machine model (fabric.Fusion, fabric.Edison,
	// fabric.Mira or a custom parameter set). Default: fusion.
	Platform *fabric.Params
	// SparseFlush opts into the scalable synchronization mode on whatever
	// Platform selects: flush-all scans touch only the epoch's dirty peers,
	// per-peer eager/connection state is allocated on first use, and the
	// runtime's flat fan-in collectives switch to O(log P) trees. Equivalent
	// to choosing the platform's "-sparse" variant (fusion-sparse, ...); a
	// no-op when the platform already has MPI.SparseFlush set. Default off:
	// the paper-faithful mode with bit-exact clocks.
	SparseFlush bool
	// Diag groups the diagnostic subsystems (tracing, observability,
	// sanitizing). The pre-1.0 top-level aliases (Trace, Observe,
	// ObsRingCap, Sanitize) are gone; set these fields directly.
	Diag Diag
	// Faults installs a deterministic fault-injection plan (drops,
	// duplicates, delays, reordering, image crashes and stalls) driven by
	// the virtual clock; nil or an empty plan leaves the fabric untouched
	// and costs nothing. See faults.Plan / faults.Canonical.
	Faults *faults.Plan

	// MPIOptions tunes the CAF-MPI binding (e.g. the §5 MPI_WIN_RFLUSH
	// ablation).
	MPIOptions rtmpi.Options
	// GASNetOptions tunes the CAF-GASNet binding (e.g. the AM-mediated
	// write mode behind the Figure 2 deadlock demo).
	GASNetOptions rtgasnet.Options
}

// Re-exported runtime types: the full CAF 2.0 API surface lives on these.
type (
	// Image is one CAF process image.
	Image = core.Image
	// Team is a first-class group of images.
	Team = core.Team
	// Coarray is a symmetric remote-accessible allocation over a team.
	Coarray = core.Coarray
	// Events is a set of first-class counting events (an event coarray).
	Events = core.Events
	// EventRef names one event slot on one image.
	EventRef = core.EventRef
	// AsyncOpts carries the predicate/source/destination events of an
	// asynchronous copy.
	AsyncOpts = core.AsyncOpts
	// CofenceOpts selects which implicit operations a scoped cofence
	// completes (§3.5's optional argument).
	CofenceOpts = core.CofenceOpts
	// SpawnFunc is a shippable function.
	SpawnFunc = core.SpawnFunc
)

// Element kinds and reduction operators for team collectives.
const (
	Byte       = elem.Byte
	Int32      = elem.Int32
	Int64      = elem.Int64
	Uint64     = elem.Uint64
	Float64    = elem.Float64
	Complex128 = elem.Complex128

	OpSum  = elem.Sum
	OpProd = elem.Prod
	OpMax  = elem.Max
	OpMin  = elem.Min
)

// Byte-view helpers for building collective and coarray buffers without
// copies.
var (
	F64Bytes  = elem.F64Bytes
	I64Bytes  = elem.I64Bytes
	U64Bytes  = elem.U64Bytes
	I32Bytes  = elem.I32Bytes
	C128Bytes = elem.C128Bytes
	BytesF64  = elem.BytesF64
	BytesI64  = elem.BytesI64
	BytesU64  = elem.BytesU64
	BytesI32  = elem.BytesI32
	BytesC128 = elem.BytesC128
)

func (c *Config) normalize() error {
	if c.Substrate == "" {
		c.Substrate = MPI
	}
	if c.Platform == nil {
		c.Platform = fabric.Platform("fusion")
	}
	if c.SparseFlush && !c.Platform.SparseSync() {
		c.Platform = fabric.SparseVariant(c.Platform)
	}
	switch c.Substrate {
	case MPI, GASNet:
		return nil
	default:
		return fmt.Errorf("caf: unknown substrate %q (want %q or %q): %w", c.Substrate, MPI, GASNet, ErrInvalid)
	}
}

// coreConfig translates the public config into the runtime config.
func (c *Config) coreConfig() (core.Config, error) {
	if err := c.normalize(); err != nil {
		return core.Config{}, err
	}
	cc := core.Config{Trace: c.Diag.Trace, Observe: c.Diag.Observe, ObsRingCap: c.Diag.ObsRingCap, Sanitize: c.Diag.Sanitize, Faults: c.Faults, Postmortem: c.Diag.Postmortem, WallProf: c.Diag.WallProf}
	switch c.Substrate {
	case MPI:
		opt := c.MPIOptions
		platform := c.Platform
		cc.Factory = func(p *sim.Proc, deliver core.DeliverFunc) (core.Substrate, error) {
			return rtmpi.New(p, fabric.AttachNet(p.World(), platform), deliver, opt)
		}
	case GASNet:
		opt := c.GASNetOptions
		platform := c.Platform
		cc.Factory = func(p *sim.Proc, deliver core.DeliverFunc) (core.Substrate, error) {
			return rtgasnet.New(p, fabric.AttachNet(p.World(), platform), deliver, opt)
		}
	}
	return cc, nil
}

// Run executes fn as a CAF program on n images. It is
// RunContext(context.Background(), ...).
func Run(n int, cfg Config, fn func(*Image) error) error {
	return RunContext(context.Background(), n, cfg, fn)
}

// RunContext is Run under a context: when ctx is canceled the job's failure
// latch trips and every blocked runtime call (event waits, collectives,
// finish, blocked sends) unblocks with a typed error wrapping the
// cancellation cause, so the job exits cleanly instead of deadlocking.
func RunContext(ctx context.Context, n int, cfg Config, fn func(*Image) error) error {
	_, err := RunWorldContext(ctx, n, cfg, fn)
	return err
}

// RunWorld is Run returning the simulation world as well, for post-run
// inspection (the obs registry, per-image clocks).
func RunWorld(n int, cfg Config, fn func(*Image) error) (*sim.World, error) {
	return RunWorldContext(context.Background(), n, cfg, fn)
}

// RunWorldContext is RunContext returning the simulation world as well.
func RunWorldContext(ctx context.Context, n int, cfg Config, fn func(*Image) error) (*sim.World, error) {
	cc, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	return core.RunWorldContext(ctx, n, cc, fn)
}

// Boot initializes the CAF runtime on an existing simulated image (for
// programs that manage their own sim.World, e.g. to combine CAF with a
// separately initialized MPI library in one job).
func Boot(p *sim.Proc, cfg Config) (*Image, error) {
	cc, err := cfg.coreConfig()
	if err != nil {
		return nil, err
	}
	return core.Boot(p, cc)
}

// MPIEnv returns the MPI environment underlying a CAF-MPI image — the
// interoperability the paper targets: hybrid applications issue their own
// MPI calls (reductions, libraries) against the same MPI instance that
// serves the CAF runtime. It returns an error under CAF-GASNet, where MPI
// would have to be initialized as a second, duplicated runtime (Figure 1).
func MPIEnv(im *Image) (*mpi.Env, error) {
	if s, ok := im.Substrate().(*rtmpi.S); ok {
		return s.Env(), nil
	}
	return nil, fmt.Errorf("caf: image runs on substrate %q; MPI interop requires the %q substrate", im.Substrate().Name(), MPI)
}
