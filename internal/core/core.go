package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/flightrec"
	"cafmpi/internal/obs/wallprof"
	"cafmpi/internal/sanitizer"
	"cafmpi/internal/sim"
	"cafmpi/internal/trace"
)

// Runtime active-message kinds carried over Substrate.AMSend.
const (
	amEventNotify uint8 = iota + 1 // args: eventsID, slot, count
	amSpawn                        // args: funcID; payload: user argument bytes
	amCopyPut                      // args: coarrayID, off, eventsID, slot, eventOwnerWorld; payload: data
	amCollSignal                   // args: teamID, key, srcTeamRank
	amCollData                     // args: teamID, key, srcTeamRank; payload: data
)

// noEvent marks an absent event reference inside AM args.
const noEvent = ^uint64(0)

// SubstrateFactory builds an image's substrate. deliver must be wired as
// the substrate's AM dispatcher before the factory returns (AMs may arrive
// as soon as any other image finishes booting).
type SubstrateFactory func(p *sim.Proc, deliver DeliverFunc) (Substrate, error)

// Config configures the runtime for one job.
type Config struct {
	// Factory selects and constructs the substrate (CAF-MPI or CAF-GASNet;
	// see package caf for the wiring).
	Factory SubstrateFactory
	// Trace enables per-image category timing (Figures 4 and 8).
	Trace bool
	// Observe enables the obs subsystem: per-image event rings, counters,
	// and the communication matrix. Read the results after the run via
	// obs.Enabled(world).
	Observe bool
	// ObsRingCap overrides the per-image event ring capacity
	// (obs.DefaultRingCap when zero).
	ObsRingCap int
	// Sanitize enables the PGAS synchronization sanitizer: per-image vector
	// clocks merged at the runtime's sync points plus shadow access tracking
	// on coarray windows, reporting unordered conflicting accesses and RMA
	// ordering misuse. Clock-pure — virtual time is unaffected. Read the
	// findings after the run via sanitizer.Enabled(world).
	Sanitize bool
	// Faults installs a deterministic fault-injection plan on the fabric
	// (message drops with retry/backoff, duplicates, delays, image crashes
	// and stalls). Nil means no injection — the zero-cost default. Read the
	// injected-fault log after the run via faults.Enabled(world).Log().
	Faults *faults.Plan
	// Postmortem arms the flight recorder: when an image crashes or the
	// job's failure latch trips, a deterministic signature-stamped bundle
	// (recent events, counters, fault decisions) is written under this
	// directory. Implies Observe — the obs shards are the recorder's
	// black box.
	Postmortem string
	// WallProf enables the host-time profiling plane (internal/obs/
	// wallprof): a CPU profile of the run bucketed by component, the
	// caf_image pprof label, and the runtime/metrics host sampler.
	// Clock-pure — virtual time and all goldens are unaffected. Read the
	// divergence report after the run via wallprof.Enabled(world).Analyze.
	WallProf bool
}

// SpawnFunc is a shippable function (CAF 2.0 function shipping). It runs on
// the target image's goroutine with the target's Image and the argument
// bytes sent by the spawner.
type SpawnFunc func(im *Image, args []byte)

// Image is one CAF process image: the handle through which a program uses
// the entire CAF 2.0 API.
type Image struct {
	p   *sim.Proc
	sub Substrate
	tr  *trace.Tracer
	osh *obs.Shard       // nil when observability is off
	san *sanitizer.Image // nil when sanitizing is off (methods are nil-safe)
	flt *faults.State    // failure/cancellation latch (methods are nil-safe)

	world *Team
	ids   *atomic.Uint64 // world-shared id allocator (teams, coarrays, events)

	teams    map[uint64]*Team
	coarrays map[uint64]*Coarray
	events   map[uint64]*Events

	funcs     map[uint64]SpawnFunc
	shipped   int64 // spawns sent (monotone; §3.5 termination detection)
	completed int64 // shipped functions executed locally (monotone)

	// pending holds (completion, event) pairs from explicitly synchronized
	// async operations (§3.3 rules 2 and 3): when the completion tests
	// done, the event is posted. Drained during polls.
	pending []pendingEvent

	// orphanAMs buffers collective AMs naming a team this image has not
	// finished creating yet (a faster teammate can complete Split and start
	// team traffic while this image is still inside the split's allgather).
	// They replay when the team registers. orphanSpawns does the same for
	// spawns of functions whose local registration has not run yet.
	orphanAMs    map[uint64][]orphanAM
	orphanSpawns map[uint64][]orphanAM

	// amArgs is the argument scratch for outgoing runtime AMs: substrates
	// consume args before AMSend returns, so the hot notification paths
	// reuse one array instead of allocating a slice per message.
	amArgs [8]uint64

	// Event-wait staging: event_wait is the runtime's hottest blocking call,
	// and a fresh condition closure per call is measurable. evCond is built
	// once in Boot and reads the staged waitEvs/waitSlot; pollWrap likewise
	// wraps the staged pollCond with the pending-completion drain. Both
	// stagings save/restore around nesting (an AM handler may block again).
	waitEvs  *Events
	waitSlot int
	evCond   func() bool
	pollCond func() bool
	pollWrap func() bool
}

type orphanAM struct {
	src     int
	kind    uint8
	args    []uint64
	payload []byte
}

type pendingEvent struct {
	comp Completion
	evs  []EventRef
}

// notePending parks a completion whose events fire when it tests done.
func (im *Image) notePending(comp Completion, evs ...*EventRef) {
	pe := pendingEvent{comp: comp}
	for _, e := range evs {
		if e != nil {
			pe.evs = append(pe.evs, *e)
		}
	}
	im.pending = append(im.pending, pe)
}

// Boot initializes the CAF runtime on image p. Every image of the world
// must boot with an equivalent Config before any communication.
func Boot(p *sim.Proc, cfg Config) (*Image, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("core: Config.Factory is required")
	}
	im := &Image{
		p:        p,
		teams:    make(map[uint64]*Team),
		coarrays: make(map[uint64]*Coarray),
		events:   make(map[uint64]*Events),
		funcs:    make(map[uint64]SpawnFunc),
	}
	im.evCond = func() bool { return im.waitEvs.count[im.waitSlot] > 0 }
	im.pollWrap = func() bool {
		im.drainPending()
		return im.pollCond()
	}
	im.ids = p.World().Shared("core.ids", func() any {
		c := new(atomic.Uint64)
		c.Store(1)
		return c
	}).(*atomic.Uint64)
	if cfg.Trace {
		im.tr = trace.New(p)
	}
	if cfg.Observe || cfg.Postmortem != "" {
		// Must precede the Factory call: fabric/mpi/gasnet cache their shard
		// handles at attach time.
		obs.Enable(p.World(), cfg.ObsRingCap)
	}
	if cfg.Postmortem != "" {
		flightrec.Arm(p.World(), cfg.Postmortem)
	}
	if cfg.WallProf {
		// LabelImage runs here, on the image's own goroutine, so the pprof
		// label tags the right G.
		wallprof.Enable(p.World())
		wallprof.LabelImage(p)
	}
	im.osh = obs.For(p)
	// Like obs.Enable, this must precede the Factory call (the fabric caches
	// the fault state at attach). Idempotent: RunWorldContext already enabled
	// it with the same plan.
	im.flt = faults.Enable(p.World(), cfg.Faults)
	if cfg.Sanitize {
		sanitizer.Enable(p.World())
		im.san = sanitizer.For(p)
	}
	// TEAM_WORLD must be addressable by AMs before the substrate's first
	// poll: a faster image can finish booting and send world-team
	// collective AMs while this image is still inside the substrate's
	// startup barrier (which dispatches AMs).
	im.world = &Team{im: im, id: 0}
	im.world.initColl()
	im.teams[0] = im.world
	sub, err := cfg.Factory(p, im.deliver)
	if err != nil {
		return nil, err
	}
	im.sub = sub
	if im.tr != nil {
		if st, ok := sub.(interface{ SetTracer(*trace.Tracer) }); ok {
			st.SetTracer(im.tr)
		}
	}
	im.world.ref = sub.WorldTeam()
	return im, nil
}

// Run boots an n-image world and executes fn on every image.
func Run(n int, cfg Config, fn func(*Image) error) error {
	_, err := RunWorld(n, cfg, fn)
	return err
}

// RunWorld is Run returning the world as well, so callers can read post-run
// state — the obs registry, per-image clocks — after all images finish.
func RunWorld(n int, cfg Config, fn func(*Image) error) (*sim.World, error) {
	return RunWorldContext(context.Background(), n, cfg, fn)
}

// RunContext is Run with cancellation: when ctx is done, every image's
// blocked runtime call returns an error wrapping the context's cause, the
// images drain, and the call returns. The world's post-run state (obs,
// fault log) stays readable via RunWorldContext.
func RunContext(ctx context.Context, n int, cfg Config, fn func(*Image) error) error {
	_, err := RunWorldContext(ctx, n, cfg, fn)
	return err
}

// RunWorldContext boots an n-image world, executes fn on every image, and
// cancels the job cleanly when ctx is done: the cancellation trips the
// world's failure latch, which broadcast-wakes every parked endpoint
// waiter, so blocked collectives/event waits/finishes return typed errors
// instead of deadlocking, and all image goroutines join before return.
func RunWorldContext(ctx context.Context, n int, cfg Config, fn func(*Image) error) (*sim.World, error) {
	// Programmatic plans get the same scrutiny cafrun's -faults path does:
	// reject bad ranks/probabilities/kinds (and the divide-by-zero a
	// zero-delay reorder rule would hit) with the typed ErrInvalid up front.
	if err := cfg.Faults.Validate(n); err != nil {
		return nil, fmt.Errorf("core: fault plan: %w", err)
	}
	w := sim.NewWorld(n)
	st := faults.Enable(w, cfg.Faults)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { st.Cancel(context.Cause(ctx)) })
		defer stop()
	}
	err := w.Run(func(p *sim.Proc) (err error) {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(faults.Crashed)
				if !ok {
					panic(r)
				}
				// A fault-plan crash point: the image dies with a typed
				// error instead of a panic, so callers can errors.Is it.
				err = c.Into()
			}
			if err != nil {
				// An image exiting with an error is a failed image: latch
				// it so peers parked in collectives or event waits unblock
				// with ErrImageFailed instead of waiting forever for
				// messages the dead image will never send.
				st.MarkFailed(p.ID())
			}
		}()
		im, berr := Boot(p, cfg)
		if berr != nil {
			return berr
		}
		return fn(im)
	})
	// Stop the host-time plane's CPU profile and sampler on every exit
	// path: a running profile would make the next world's plane fail.
	wallprof.Enabled(w).Finish()
	// Crash-triggered dump: every failed chaos run leaves a debuggable
	// artifact. A dump failure never masks the run's own error.
	if rec := flightrec.Armed(w); rec != nil && (err != nil || st.Down()) {
		if _, derr := rec.Dump(w, err); derr != nil && err == nil {
			err = fmt.Errorf("core: postmortem dump: %w", derr)
		}
	}
	return w, err
}

// ID returns this image's world rank (its index in TEAM_WORLD).
func (im *Image) ID() int { return im.p.ID() }

// N returns the world size.
func (im *Image) N() int { return im.p.N() }

// World returns TEAM_WORLD.
func (im *Image) World() *Team { return im.world }

// Proc returns the underlying simulated process.
func (im *Image) Proc() *sim.Proc { return im.p }

// Substrate returns the communication substrate (for interop access, e.g.
// reaching the MPI environment from a hybrid MPI+CAF application).
func (im *Image) Substrate() Substrate { return im.sub }

// Tracer returns the image's tracer (nil unless Config.Trace was set).
func (im *Image) Tracer() *trace.Tracer { return im.tr }

// Now returns the image's virtual clock in seconds.
func (im *Image) Now() float64 { return float64(im.p.Now()) * 1e-9 }

// Platform returns the machine cost model in force.
func (im *Image) Platform() *fabric.Params { return im.sub.Platform() }

// Compute charges flops of computation against the platform's flop rate,
// attributing the time to the computation trace category.
func (im *Image) Compute(flops int64) {
	dt := im.sub.Platform().FlopTime(flops)
	im.p.Advance(dt)
	im.tr.Add(trace.Computation, dt)
}

// MemWork charges bytes of local memory traffic (packing, table updates) to
// the computation category.
func (im *Image) MemWork(bytes int64) {
	dt := im.sub.Platform().MemTime(bytes)
	im.p.Advance(dt)
	im.tr.Add(trace.Computation, dt)
}

// MemoryFootprint reports the substrate runtime's memory on this image.
func (im *Image) MemoryFootprint() int64 { return im.sub.MemoryFootprint() }

// Poll makes runtime progress: dispatches arrived AMs (running event posts
// and shipped functions) and fires events for completed async operations.
func (im *Image) Poll() {
	im.sub.Poll()
	im.drainPending()
}

// pollUntil blocks until cond holds, making full runtime progress. If the
// awaited condition can only be produced by a locally issued asynchronous
// operation (a pending completion), the wait completes that operation —
// advancing the virtual clock — instead of parking on the network. It
// returns early with a typed error when the job's failure latch trips (an
// image crashed, or the job was canceled) — ULFM-style: a wait whose
// producer may be dead unblocks with ErrImageFailed instead of hanging.
func (im *Image) pollUntil(cond func() bool) error {
	for {
		im.Poll()
		if cond() {
			return nil
		}
		if err := im.flt.ErrOp("wait"); err != nil {
			return err
		}
		if len(im.pending) > 0 {
			im.pending[0].comp.Wait()
			continue
		}
		prev := im.pollCond
		im.pollCond = cond
		err := im.sub.PollUntil(im.pollWrap)
		im.pollCond = prev
		return err
	}
}

func (im *Image) drainPending() {
	if len(im.pending) == 0 {
		return
	}
	kept := im.pending[:0]
	for _, pe := range im.pending {
		if pe.comp.Test() {
			for _, ev := range pe.evs {
				im.postEvent(ev, 1)
			}
		} else {
			kept = append(kept, pe)
		}
	}
	im.pending = kept
}

// newID draws a world-unique id, agreed across the members of team t by a
// broadcast from the team's rank 0. It is used for every collectively
// created object (teams, coarrays, events) so AMs can name them.
func (im *Image) newID(t *Team) (uint64, error) {
	var id uint64
	if t.Rank() == 0 {
		id = im.ids.Add(1)
	}
	buf := []uint64{id}
	if err := t.bcastU64(buf, 0); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// deliver is the runtime's AM dispatcher, invoked by the substrate on this
// image's goroutine during polls. An AM's execution happens-after its
// injection, so delivery is a sanitizer acquire on the (src, this) channel;
// orphan replays go straight to dispatch — their clock edge was taken at
// arrival, and arrival happens-before the replay.
func (im *Image) deliver(src int, kind uint8, args []uint64, payload []byte) {
	im.san.AMAcquire(src)
	im.dispatch(src, kind, args, payload)
}

func (im *Image) dispatch(src int, kind uint8, args []uint64, payload []byte) {
	switch kind {
	case amEventNotify:
		evs, ok := im.events[args[0]]
		if !ok {
			panic(fmt.Sprintf("core: image %d received notify for unknown events object %d", im.ID(), args[0]))
		}
		// The post is this slot's release point: the owner's clock already
		// joined the notifier's via the AM edge above.
		im.san.EventPublish(args[0], im.ID(), int(args[1]))
		evs.post(src, int(args[1]), int64(args[2]))

	case amSpawn:
		fn, ok := im.funcs[args[0]]
		if !ok {
			// The spawner registered (and shipped) before this image's
			// symmetric registration ran: park the spawn for replay. The
			// shipped/completed imbalance keeps any enclosing finish alive
			// until the replay executes.
			if im.orphanSpawns == nil {
				im.orphanSpawns = make(map[uint64][]orphanAM)
			}
			im.orphanSpawns[args[0]] = append(im.orphanSpawns[args[0]],
				orphanAM{src: src, kind: kind, args: append([]uint64(nil), args...), payload: append([]byte(nil), payload...)})
			return
		}
		fn(im, payload)
		im.completed++

	case amCopyPut:
		co, ok := im.coarrays[args[0]]
		if !ok {
			panic(fmt.Sprintf("core: image %d received copy-put for unknown coarray %d", im.ID(), args[0]))
		}
		off := int(args[1])
		// The copy executes on the owner's goroutine: record it as the
		// owner's write, clock already past the sender's injection edge.
		im.san.LocalAccess(args[0], off, len(payload), true, fmt.Sprintf("copy-put from image %d", src))
		copy(co.Local()[off:off+len(payload)], payload)
		if args[2] != noEvent {
			ev := EventRef{evsID: args[2], Slot: int(args[3]), ownerWorld: int(args[4])}
			im.postEvent(ev, 1)
		}

	case amCollSignal, amCollData:
		t, ok := im.teams[args[0]]
		if !ok {
			// Team still being created locally: park the AM for replay.
			if im.orphanAMs == nil {
				im.orphanAMs = make(map[uint64][]orphanAM)
			}
			im.orphanAMs[args[0]] = append(im.orphanAMs[args[0]],
				orphanAM{src: src, kind: kind, args: append([]uint64(nil), args...), payload: append([]byte(nil), payload...)})
			return
		}
		key := int(int64(int32(uint32(args[1])))) // sign-preserving (creditKey)
		if kind == amCollSignal {
			t.coll.signal(key, int(args[2]))
		} else {
			t.coll.deposit(key, int(args[2]), payload)
		}

	default:
		panic(fmt.Sprintf("core: image %d received AM of unknown kind %d from %d", im.ID(), kind, src))
	}
}

// registerTeam publishes a newly created team and replays any collective
// AMs that arrived for it while it was still being created.
func (im *Image) registerTeam(t *Team) {
	im.teams[t.id] = t
	if q := im.orphanAMs[t.id]; q != nil {
		delete(im.orphanAMs, t.id)
		for _, o := range q {
			im.dispatch(o.src, o.kind, o.args, o.payload)
		}
	}
}

// amSend injects a runtime AM, publishing the sanitizer release edge the
// delivery on dst will acquire. All runtime AM injection goes through here.
func (im *Image) amSend(dst int, kind uint8, args []uint64, payload []byte) error {
	im.san.AMPublish(dst)
	return im.sub.AMSend(dst, kind, args, payload)
}

// releaseFence completes every previously issued operation at its target.
// Locally it also completes implicitly synchronized gets, so pending
// get-destination buffers become defined.
func (im *Image) releaseFence() error {
	err := im.sub.ReleaseFence()
	im.san.FenceLocal()
	return err
}

// postEvent posts count to an event reference, locally when this image owns
// it, otherwise via a notify AM (without a release fence: the fence, when
// required, is the responsibility of the operation that initiated this
// post).
func (im *Image) postEvent(ev EventRef, count int64) {
	if ev.ownerWorld == im.ID() {
		evs, ok := im.events[ev.evsID]
		if !ok {
			panic(fmt.Sprintf("core: posting to unknown events object %d", ev.evsID))
		}
		im.san.EventPublish(ev.evsID, im.ID(), ev.Slot)
		evs.post(im.ID(), ev.Slot, count)
		return
	}
	im.amArgs[0], im.amArgs[1], im.amArgs[2] = ev.evsID, uint64(ev.Slot), uint64(count)
	if err := im.amSend(ev.ownerWorld, amEventNotify, im.amArgs[:3], nil); err != nil {
		// Wrapped, not stringified: the panic value unwraps through
		// sim.PanicError so typed causes (ErrImageFailed, ...) stay matchable.
		panic(fmt.Errorf("core: image %d event post AM failed: %w", im.ID(), err))
	}
}
