// Package rtmpi binds the CAF 2.0 runtime to MPI-3 — the paper's CAF-MPI
// design (§3):
//
//   - Coarrays are MPI windows created with MPI_WIN_ALLOCATE and held in a
//     lifetime MPI_WIN_LOCK_ALL passive-target epoch; blocking accesses use
//     MPI_PUT/MPI_GET + MPI_WIN_FLUSH (§3.1).
//   - Active messages ride MPI two-sided messaging: injected with MPI_ISEND
//     for rate, with local-completion waits deferred to the next
//     synchronization point (§3.2).
//   - Implicitly synchronized operations keep arrays of request handles
//     from MPI_RPUT/MPI_RGET; cofence is MPI_WAITALL over them (§3.5).
//   - The release fence behind event_notify is MPI_WAITALL on outstanding
//     AM sends plus MPI_WIN_FLUSH_ALL on every touched window — whose
//     MPICH-style per-rank scan is the scalability issue of §4.1.
//   - Teams map to communicators; collectives map to MPI collectives.
package rtmpi

import (
	"fmt"

	"cafmpi/internal/core"
	"cafmpi/internal/elem"
	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
	"cafmpi/internal/mpi"
	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
	"cafmpi/internal/trace"
)

// Options tune the binding.
type Options struct {
	// UseRflush replaces the release fence's blocking MPI_WIN_FLUSH_ALL
	// with the request-generating MPI_WIN_RFLUSH extension the paper
	// proposes in §5 (ablation: the RandomAccess notify cost collapses).
	UseRflush bool
	// AtomicEvents switches CAF events from the shipped ISEND/RECV design
	// to the §3.4 alternative: MPI_FETCH_AND_OP notifies into an event
	// window and MPI_COMPARE_AND_SWAP busy-waits (ablation).
	AtomicEvents bool
}

// S is the CAF-MPI substrate.
type S struct {
	p       *sim.Proc
	net     *fabric.Net
	env     *mpi.Env
	world   *team
	amComm  *mpi.Comm
	deliver core.DeliverFunc
	opt     Options

	amReqs       []*mpi.Request // outstanding AM isends (§3.2 deferred waits)
	implicitPuts []*mpi.Request // request handles of deferred puts (§3.5)
	implicitGets []*mpi.Request // request handles of deferred gets (§3.5)
	wins         []*mpi.Win     // every window this image touched
	extraMemory  int64

	// Scratch buffers for the AM hot path, reusable because MPI's Isend and
	// Recv consume/fill their buffers before returning: amBuf holds encoded
	// outgoing AMs, rxBuf incoming ones, argBuf the decoded argument words.
	// Only an AM's payload needs a fresh allocation (the runtime may retain
	// it past the dispatch).
	amBuf  []byte
	rxBuf  []byte
	argBuf []uint64
	rfReqs []*mpi.Request // RflushAll request scratch (UseRflush fences)

	tr  *trace.Tracer // attributes substrate time in --trace; nil when off
	osh *obs.Shard    // observability shard; nil when off
	flt *faults.State // failure/cancellation latch; nil-safe methods
}

// New builds the substrate on image p. deliver is the runtime's AM
// dispatcher.
func New(p *sim.Proc, net *fabric.Net, deliver core.DeliverFunc, opt Options) (*S, error) {
	env := mpi.Init(p, net)
	amComm, err := env.CommWorld().Dup()
	if err != nil {
		return nil, err
	}
	s := &S{p: p, net: net, env: env, amComm: amComm, deliver: deliver, opt: opt}
	s.world = &team{comm: env.CommWorld()}
	s.osh = obs.For(p)
	s.flt = faults.Enabled(p.World())
	return s, nil
}

// SetTracer attaches the image's tracer so substrate operations report their
// time under the substrate_* categories (core.Boot calls this when tracing).
func (s *S) SetTracer(tr *trace.Tracer) { s.tr = tr }

// Env exposes the MPI environment for hybrid MPI+CAF applications — the
// interoperability the paper targets: the same MPI library instance serves
// both the CAF runtime and direct MPI calls.
func (s *S) Env() *mpi.Env { return s.env }

// Name identifies the substrate.
func (s *S) Name() string { return "mpi" }

// Platform returns the machine cost model.
func (s *S) Platform() *fabric.Params { return s.net.Params() }

// Proc returns the owning image.
func (s *S) Proc() *sim.Proc { return s.p }

// Caps reports MPI capabilities: AM-mediated puts when a destination event
// is required (§3.3 rule 4).
func (s *S) Caps() core.Caps { return core.Caps{PutWithRemoteEventViaAM: true} }

// team wraps an MPI communicator as a core.TeamRef.
type team struct{ comm *mpi.Comm }

func (t *team) Rank() int           { return t.comm.Rank() }
func (t *team) Size() int           { return t.comm.Size() }
func (t *team) WorldRank(r int) int { return t.comm.WorldRank(r) }

// WorldTeam returns MPI_COMM_WORLD as TEAM_WORLD.
func (s *S) WorldTeam() core.TeamRef { return s.world }

// SplitTeam maps team_split to MPI_Comm_split.
func (s *S) SplitTeam(t core.TeamRef, color, key int) (core.TeamRef, error) {
	nc, err := t.(*team).comm.Split(color, key)
	if err != nil {
		return nil, err
	}
	if nc == nil {
		return nil, nil
	}
	return &team{comm: nc}, nil
}

// MakeTeam is unused: SplitTeam is native.
func (s *S) MakeTeam([]int, int) (core.TeamRef, error) {
	return nil, core.ErrUnsupported
}

// segment wraps an MPI window.
type segment struct{ win *mpi.Win }

func (g *segment) Local() []byte { return g.win.Base() }
func (g *segment) Bytes() int    { return g.win.Size() }

// AllocSegment creates a window with MPI_WIN_ALLOCATE and opens the
// lifetime lock-all epoch (§3.1).
func (s *S) AllocSegment(t core.TeamRef, bytes int, _ uint64) (core.Segment, error) {
	win, err := mpi.WinAllocate(t.(*team).comm, bytes)
	if err != nil {
		return nil, err
	}
	if err := win.LockAll(); err != nil {
		return nil, err
	}
	s.wins = append(s.wins, win)
	return &segment{win: win}, nil
}

// FreeSegment unlocks and frees the window.
func (s *S) FreeSegment(g core.Segment) error {
	win := g.(*segment).win
	for i, w := range s.wins {
		if w == win {
			s.wins = append(s.wins[:i], s.wins[i+1:]...)
			break
		}
	}
	if err := win.UnlockAll(); err != nil {
		return err
	}
	return win.Free()
}

// Put is the blocking coarray write: MPI_PUT + MPI_WIN_FLUSH (§3.1).
func (s *S) Put(g core.Segment, target, off int, data []byte) error {
	defer s.tr.Span(trace.SubstratePut)()
	win := g.(*segment).win
	t0 := s.p.Now()
	if err := win.Put(data, target, off); err != nil {
		return err
	}
	if err := win.Flush(target); err != nil {
		return err
	}
	s.osh.Record(obs.LayerSubstrate, obs.OpPut, win.Comm().WorldRank(target), len(data), off, t0, s.p.Now())
	return nil
}

// Get is the blocking coarray read: MPI_GET + MPI_WIN_FLUSH.
func (s *S) Get(g core.Segment, target, off int, into []byte) error {
	defer s.tr.Span(trace.SubstrateGet)()
	win := g.(*segment).win
	t0 := s.p.Now()
	if err := win.Get(into, target, off); err != nil {
		return err
	}
	if err := win.Flush(target); err != nil {
		return err
	}
	s.osh.Record(obs.LayerSubstrate, obs.OpGet, win.Comm().WorldRank(target), len(into), off, t0, s.p.Now())
	return nil
}

// PutDeferred issues MPI_RPUT and parks the request on the implicit-put
// list (§3.5).
func (s *S) PutDeferred(g core.Segment, target, off int, data []byte) error {
	req, err := g.(*segment).win.Rput(data, target, off)
	if err != nil {
		return err
	}
	s.implicitPuts = append(s.implicitPuts, req)
	return nil
}

// GetDeferred issues MPI_RGET and parks the request on the implicit-get
// list (§3.5).
func (s *S) GetDeferred(g core.Segment, target, off int, into []byte) error {
	req, err := g.(*segment).win.Rget(into, target, off)
	if err != nil {
		return err
	}
	s.implicitGets = append(s.implicitGets, req)
	return nil
}

// completion adapts an MPI request.
type completion struct{ req *mpi.Request }

func (c completion) Test() bool {
	done, _, err := c.req.Test()
	if err != nil {
		// Wrapped, not stringified: unwinds through sim.PanicError with the
		// typed cause (ErrImageFailed, ErrRetriesExhausted) intact.
		panic(fmt.Errorf("rtmpi: async operation failed: %w", err))
	}
	return done
}

func (c completion) Wait() {
	if _, err := c.req.Wait(); err != nil {
		panic(fmt.Errorf("rtmpi: async operation failed: %w", err))
	}
}

// PutAsyncLocal maps §3.3 rule 3 to MPI_RPUT.
func (s *S) PutAsyncLocal(g core.Segment, target, off int, data []byte) (core.Completion, error) {
	req, err := g.(*segment).win.Rput(data, target, off)
	if err != nil {
		return nil, err
	}
	return completion{req}, nil
}

// GetAsync maps §3.3 rule 2 to MPI_RGET.
func (s *S) GetAsync(g core.Segment, target, off int, into []byte) (core.Completion, error) {
	req, err := g.(*segment).win.Rget(into, target, off)
	if err != nil {
		return nil, err
	}
	return completion{req}, nil
}

// AM encoding: tag carries the kind; the payload is
// [1B argCount][args as 8B little-endian][user payload]. The returned slice
// aliases s.amBuf and is only valid until the next encode.
func (s *S) encodeAM(args []uint64, payload []byte) []byte {
	need := 1 + 8*len(args) + len(payload)
	if cap(s.amBuf) < need {
		s.amBuf = make([]byte, need)
	}
	buf := s.amBuf[:need]
	buf[0] = byte(len(args))
	for i, a := range args {
		for b := 0; b < 8; b++ {
			buf[1+8*i+b] = byte(a >> (8 * b))
		}
	}
	copy(buf[1+8*len(args):], payload)
	return buf
}

// decodeAM splits an encoded AM; args aliases s.argBuf and is only valid
// until the next decode, payload aliases buf.
func (s *S) decodeAM(buf []byte) (args []uint64, payload []byte) {
	n := int(buf[0])
	if cap(s.argBuf) < n {
		s.argBuf = make([]uint64, n)
	}
	args = s.argBuf[:n]
	for i := 0; i < n; i++ {
		var a uint64
		for b := 0; b < 8; b++ {
			a |= uint64(buf[1+8*i+b]) << (8 * b)
		}
		args[i] = a
	}
	return args, buf[1+8*n:]
}

// AMSend injects a runtime AM with MPI_ISEND on the dedicated AM
// communicator; the local-completion wait is deferred to the next
// synchronization point (§3.2).
func (s *S) AMSend(worldTarget int, kind uint8, args []uint64, payload []byte) error {
	defer s.tr.Span(trace.SubstrateAM)()
	t0 := s.p.Now()
	req, err := s.amComm.Isend(s.encodeAM(args, payload), worldTarget, int(kind))
	if err != nil {
		return err
	}
	s.amReqs = append(s.amReqs, req)
	s.osh.Record(obs.LayerSubstrate, obs.OpAMSend, worldTarget, len(payload), int(kind), t0, s.p.Now())
	return nil
}

// Poll drains arrived AMs and dispatches them to the runtime. This is the
// CAF runtime's own progress: MPI itself cannot run these handlers, which
// is the §5 "need for Active Messages in MPI" limitation — an image blocked
// inside a plain MPI call makes no CAF progress.
func (s *S) Poll() {
	for {
		ok, st, _, _, err := s.amComm.IprobeAny()
		if err != nil {
			panic(fmt.Sprintf("rtmpi: AM probe failed: %v", err))
		}
		if !ok {
			return
		}
		if cap(s.rxBuf) < st.Count {
			s.rxBuf = make([]byte, st.Count)
		}
		buf := s.rxBuf[:st.Count]
		if _, err := s.amComm.Recv(buf, st.Source, st.Tag); err != nil {
			panic(fmt.Sprintf("rtmpi: AM receive failed: %v", err))
		}
		args, payload := s.decodeAM(buf)
		if len(payload) > 0 {
			// The dispatcher may retain the payload (shipped-function
			// arguments, parked orphans); hand it an owned copy. Args-only
			// AMs — event notifies, collective signals — stay allocation-free.
			payload = append([]byte(nil), payload...)
		}
		s.deliver(s.amComm.WorldRank(st.Source), uint8(st.Tag), args, payload)
	}
}

// PollUntil blocks on network activity between polls; the underlying wait
// is a blocking receive-style poll, so the MPI progress engine keeps
// serving other traffic (§3.4). When a runtime AM is queued but still in
// virtual flight, the wait advances the clock to its arrival.
func (s *S) PollUntil(cond func() bool) error {
	for {
		seq := s.env.ActivitySeq()
		s.Poll()
		if cond() {
			return nil
		}
		// Failure latch (image crash / cancellation): unblock with the
		// typed error instead of waiting for an arrival that may never come.
		if err := s.flt.ErrOp("poll_until"); err != nil {
			return err
		}
		// The earliest-arrival scan must be fresh (after cond, not the
		// poll's stale report): an arrival landing between the poll and
		// this point must advance the clock before the next charged pass,
		// or final clocks become schedule-dependent.
		if t, ok := s.amComm.EarliestMessage(); ok {
			s.p.AdvanceTo(t)
			continue
		}
		s.env.WaitActivity(seq)
	}
}

// LocalFenceScoped is the §3.5 cofence with its optional argument:
// MPI_WAITALL on the implicit request arrays of the puts, the gets, or both.
func (s *S) LocalFenceScoped(puts, gets bool) error {
	defer s.tr.Span(trace.SubstrateFence)()
	var first error
	if puts {
		if err := mpi.Waitall(s.implicitPuts); err != nil && first == nil {
			first = err
		}
		freeReqs(s.implicitPuts)
		s.implicitPuts = s.implicitPuts[:0]
	}
	if gets {
		if err := mpi.Waitall(s.implicitGets); err != nil && first == nil {
			first = err
		}
		freeReqs(s.implicitGets)
		s.implicitGets = s.implicitGets[:0]
	}
	return first
}

// freeReqs recycles a fence-drained request array the substrate exclusively
// owns. Waitall has completed every entry, so the handles are dead.
func freeReqs(reqs []*mpi.Request) {
	for i, r := range reqs {
		if r != nil {
			r.Free()
			reqs[i] = nil
		}
	}
}

// ReleaseFence implements the release barrier of event_notify (§3.4):
// MPI_WAITALL on every outstanding AM send and implicit request, then
// remote completion of every window — MPI_WIN_FLUSH_ALL, whose per-rank
// scan in MPICH derivatives makes this fence's cost grow linearly with the
// number of processes (Figure 4). With Options.UseRflush the fence instead
// uses the proposed request-generating MPI_WIN_RFLUSH (§5) and waits on the
// returned requests, overlapping the per-target completion latencies.
func (s *S) ReleaseFence() error {
	defer s.tr.Span(trace.SubstrateFence)()
	t0 := s.p.Now()
	defer func() {
		end := s.p.Now()
		s.osh.Record(obs.LayerSubstrate, obs.OpFence, -1, 0, len(s.wins), t0, end)
		if s.osh != nil && end > t0 {
			// Fallback edge for fence time the inner flush edges do not cover
			// (Waitall on Rflush requests, evicted flush records). Ties at the
			// same End resolve to the earlier-recorded inner edge, which keeps
			// its finer-grained blame.
			e := obs.Edge{Layer: obs.LayerSubstrate, Op: obs.OpFence,
				Peer: -1, Start: t0, End: end}
			e.AddComp(obs.CompFlushWait, end-t0)
			s.osh.RecordEdge(e)
		}
	}()
	if err := mpi.Waitall(s.amReqs); err != nil {
		return err
	}
	freeReqs(s.amReqs)
	s.amReqs = s.amReqs[:0]
	if err := s.LocalFenceScoped(true, true); err != nil {
		return err
	}
	if s.opt.UseRflush {
		reqs := s.rfReqs[:0]
		for _, w := range s.wins {
			r, err := w.RflushAll()
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		s.rfReqs = reqs
		err := mpi.Waitall(reqs)
		if err == nil {
			freeReqs(reqs)
		}
		return err
	}
	for _, w := range s.wins {
		if err := w.FlushAll(); err != nil {
			return err
		}
	}
	return nil
}

// collCompletion adapts a nonblocking-collective handle.
type collCompletion struct{ r *mpi.CollRequest }

func (c collCompletion) Test() bool {
	done, err := c.r.Test()
	if err != nil {
		panic(fmt.Errorf("rtmpi: nonblocking collective failed: %w", err))
	}
	return done
}

func (c collCompletion) Wait() {
	if err := c.r.Wait(); err != nil {
		panic(fmt.Errorf("rtmpi: nonblocking collective failed: %w", err))
	}
}

// AllreduceAsync maps the CAF asynchronous team reduction to MPI_Iallreduce
// (§2.1's team_reduce_async with real communication/computation overlap).
func (s *S) AllreduceAsync(t core.TeamRef, in, out []byte, k elem.Kind, op elem.Op) (core.Completion, error) {
	r, err := t.(*team).comm.Iallreduce(in, out, k, op)
	if err != nil {
		return nil, err
	}
	return collCompletion{r}, nil
}

// BcastAsync maps to MPI_Ibcast.
func (s *S) BcastAsync(t core.TeamRef, buf []byte, root int) (core.Completion, error) {
	r, err := t.(*team).comm.Ibcast(buf, mpi.Byte, root)
	if err != nil {
		return nil, err
	}
	return collCompletion{r}, nil
}

// Barrier maps to MPI_Barrier.
func (s *S) Barrier(t core.TeamRef) error { return t.(*team).comm.Barrier() }

// Bcast maps to MPI_Bcast.
func (s *S) Bcast(t core.TeamRef, buf []byte, root int) error {
	return t.(*team).comm.Bcast(buf, mpi.Byte, root)
}

// Reduce maps to MPI_Reduce.
func (s *S) Reduce(t core.TeamRef, in, out []byte, k elem.Kind, op elem.Op, root int) error {
	return t.(*team).comm.Reduce(in, out, k, op, root)
}

// Allreduce maps to MPI_Allreduce.
func (s *S) Allreduce(t core.TeamRef, in, out []byte, k elem.Kind, op elem.Op) error {
	return t.(*team).comm.Allreduce(in, out, k, op)
}

// Alltoall maps to MPI_Alltoall (pairwise exchange — the tuned collective
// behind the paper's FFT win, Figures 6-8).
func (s *S) Alltoall(t core.TeamRef, send, recv []byte) error {
	return t.(*team).comm.Alltoall(send, recv, mpi.Byte)
}

// Allgather maps to MPI_Allgather.
func (s *S) Allgather(t core.TeamRef, send, recv []byte) error {
	return t.(*team).comm.Allgather(send, recv, mpi.Byte)
}

// MemoryFootprint reports the MPI library's memory (Figure 1).
func (s *S) MemoryFootprint() int64 { return s.env.MemoryFootprint() + s.extraMemory }

// atomicEvents is the §3.4 alternative event design: counters live in an
// MPI window; event_notify is MPI_FETCH_AND_OP(+1) on the target's slot and
// event_wait busy-waits with MPI_COMPARE_AND_SWAP, decrementing on success.
type atomicEvents struct {
	s   *S
	win *mpi.Win
}

// AllocEvents builds the window-backed transport when Options.AtomicEvents
// is set; otherwise events ride the AM path (the design CAF-MPI shipped).
func (s *S) AllocEvents(t core.TeamRef, n int, _ uint64) (core.EventBackend, error) {
	if !s.opt.AtomicEvents {
		return nil, core.ErrUnsupported
	}
	win, err := mpi.WinAllocate(t.(*team).comm, n*8)
	if err != nil {
		return nil, err
	}
	if err := win.LockAll(); err != nil {
		return nil, err
	}
	s.wins = append(s.wins, win)
	return &atomicEvents{s: s, win: win}, nil
}

func (e *atomicEvents) Notify(target, slot int) error {
	one := []int64{1}
	if err := e.win.Accumulate(mpi.I64Bytes(one), target, slot*8, mpi.Int64, mpi.OpSum); err != nil {
		return err
	}
	// The notification must be visible promptly: complete it at the target.
	return e.win.Flush(target)
}

func (e *atomicEvents) tryConsume(slot int) (bool, error) {
	me := e.win.Comm().Rank()
	cur := make([]int64, 1)
	// Atomic read of the local counter.
	if err := e.win.FetchAndOp(nil, mpi.I64Bytes(cur), me, slot*8, mpi.Int64, mpi.OpNoOp); err != nil {
		return false, err
	}
	if cur[0] <= 0 {
		return false, nil
	}
	// CAS the decrement; a racing notify may force a retry upstream.
	want := []int64{cur[0] - 1}
	old := make([]int64, 1)
	if err := e.win.CompareAndSwap(mpi.I64Bytes(want), mpi.I64Bytes(cur), mpi.I64Bytes(old), me, slot*8, mpi.Int64); err != nil {
		return false, err
	}
	return old[0] == cur[0], nil
}

func (e *atomicEvents) TryWait(slot int) (bool, error) {
	e.s.Poll() // keep AM progress alive while events bypass the AM path
	return e.tryConsume(slot)
}

func (e *atomicEvents) Wait(slot int) error {
	for {
		ok, err := e.tryConsume(slot)
		if err != nil || ok {
			return err
		}
		// Busy-wait: each probe costs a remote-atomic round trip on the
		// local window (the §3.4 concern with this design). Block for real
		// until window traffic or messages arrive, then re-probe.
		seq := e.s.env.ActivitySeq()
		e.s.Poll()
		if ok, err := e.tryConsume(slot); err != nil || ok {
			return err
		}
		if err := e.s.flt.ErrOp("event_wait"); err != nil {
			return err
		}
		e.s.env.WaitActivity(seq)
	}
}

func (e *atomicEvents) Post(slot int, n int64) {
	me := e.win.Comm().Rank()
	v := []int64{n}
	if err := e.win.Accumulate(mpi.I64Bytes(v), me, slot*8, mpi.Int64, mpi.OpSum); err != nil {
		panic(fmt.Sprintf("rtmpi: local event post failed: %v", err))
	}
	if err := e.win.Flush(me); err != nil {
		panic(fmt.Sprintf("rtmpi: local event post flush failed: %v", err))
	}
}

func (e *atomicEvents) Free() error {
	for i, w := range e.s.wins {
		if w == e.win {
			e.s.wins = append(e.s.wins[:i], e.s.wins[i+1:]...)
			break
		}
	}
	if err := e.win.UnlockAll(); err != nil {
		return err
	}
	return e.win.Free()
}
