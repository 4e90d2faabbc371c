// Package rtgasnet binds the CAF 2.0 runtime to GASNet — the original
// CAF-GASNet system the paper uses as its baseline:
//
//   - Coarrays live in registered memory reached by the extended API's RDMA
//     puts and gets; implicit-handle (NBI) operations back the deferred
//     forms, and the release fence is an O(1) NBI sync — contrast with
//     CAF-MPI's per-rank MPI_WIN_FLUSH_ALL scan.
//   - Runtime active messages ride native GASNet medium AMs (fragmented at
//     gasnet.MaxMedium and reassembled here).
//   - No collectives: the substrate reports ErrUnsupported and the CAF
//     runtime hand-crafts them from puts and AMs (§4.2) — except the
//     world-wide barrier, which GASNet provides natively.
package rtgasnet

import (
	"fmt"
	"sync"

	"cafmpi/internal/core"
	"cafmpi/internal/elem"
	"cafmpi/internal/fabric"
	"cafmpi/internal/gasnet"
	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
	"cafmpi/internal/trace"
)

// AM handler ids used by this binding.
const (
	hCore    gasnet.HandlerID = 128 // runtime AMs (fragmented)
	hAMWrite gasnet.HandlerID = 129 // AM-mediated coarray write (Options.AMWrite)
	hAMAck   gasnet.HandlerID = 130 // its per-chunk acknowledgement
)

// Options tune the binding.
type Options struct {
	// SegmentBytes sizes the attached GASNet segment (metadata only here;
	// coarrays use registered memory). Defaults to 1 MiB.
	SegmentBytes int
	// AMWrite routes blocking coarray writes through long-AM-style
	// transfers that need the *target* to poll before the write completes.
	// This reproduces the implementation-specific behaviour behind the
	// paper's Figure 2 deadlock: a target blocked inside an MPI barrier
	// never polls, so the writer never gets its acknowledgement.
	AMWrite bool
}

// registry is the world-shared table of registered coarray memory. Every
// remote put/get looks a slab up; registration and release are rare, so
// readers share the lock.
type registry struct {
	mu    sync.RWMutex
	slabs map[regKey][]byte
}

type regKey struct {
	id    uint64
	world int
}

func (r *registry) set(id uint64, world int, mem []byte) {
	r.mu.Lock()
	r.slabs[regKey{id, world}] = mem
	r.mu.Unlock()
}

func (r *registry) get(id uint64, world int) []byte {
	r.mu.RLock()
	mem := r.slabs[regKey{id, world}]
	r.mu.RUnlock()
	return mem
}

func (r *registry) drop(id uint64, world int) {
	r.mu.Lock()
	delete(r.slabs, regKey{id, world})
	r.mu.Unlock()
}

// S is the CAF-GASNet substrate.
type S struct {
	p       *sim.Proc
	net     *fabric.Net
	ep      *gasnet.Ep
	deliver core.DeliverFunc
	opt     Options
	reg     *registry
	world   *team

	amSeq      uint64
	reasm      map[reasmKey]*partial
	acks       int64 // AM-write acknowledgements received
	slabsBytes int64
	hdrArgs    [gasnet.MaxArgs]uint64 // scratch for fragment headers

	tr  *trace.Tracer // attributes substrate time in --trace; nil when off
	osh *obs.Shard    // observability shard; nil when off
}

type reasmKey struct {
	src int
	seq uint64
}

type partial struct {
	kind    uint8
	args    []uint64
	data    []byte // nChunks*MaxMedium bytes; chunks land positionally
	total   int    // true payload length, set when the last chunk arrives
	got, of int
}

// New builds the substrate on image p.
func New(p *sim.Proc, net *fabric.Net, deliver core.DeliverFunc, opt Options) (*S, error) {
	if opt.SegmentBytes == 0 {
		opt.SegmentBytes = 1 << 20
	}
	s := &S{
		p:       p,
		net:     net,
		deliver: deliver,
		opt:     opt,
		reasm:   make(map[reasmKey]*partial),
	}
	s.reg = p.World().Shared("rtgasnet.registry", func() any {
		return &registry{slabs: make(map[regKey][]byte)}
	}).(*registry)

	ep, err := gasnet.Attach(p, net, opt.SegmentBytes,
		gasnet.HandlerEntry{ID: hCore, Fn: s.onCoreAM},
		gasnet.HandlerEntry{ID: hAMWrite, Fn: s.onAMWrite},
		gasnet.HandlerEntry{ID: hAMAck, Fn: s.onAMAck},
	)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	// One identity rank list per world, shared by every image's world team.
	ranks := p.World().Shared("rtgasnet.worldranks", func() any {
		ranks := make([]int, p.N())
		for i := range ranks {
			ranks[i] = i
		}
		return ranks
	}).([]int)
	s.world = &team{ranks: ranks, myRank: p.ID()}
	s.osh = obs.For(p)
	return s, nil
}

// SetTracer attaches the image's tracer so substrate operations report their
// time under the substrate_* categories (core.Boot calls this when tracing).
func (s *S) SetTracer(tr *trace.Tracer) { s.tr = tr }

// Ep exposes the GASNet endpoint (tests, interop demos).
func (s *S) Ep() *gasnet.Ep { return s.ep }

// Name identifies the substrate.
func (s *S) Name() string { return "gasnet" }

// Platform returns the machine cost model.
func (s *S) Platform() *fabric.Params { return s.net.Params() }

// Proc returns the owning image.
func (s *S) Proc() *sim.Proc { return s.p }

// Caps: no native collectives (GASNet has none), and puts can notify via
// RDMA-put-then-AM (no AM-mediated data path needed).
func (s *S) Caps() core.Caps { return core.Caps{} }

// team is a plain world-rank list, read-only once built.
type team struct {
	ranks  []int
	myRank int
}

func (t *team) Rank() int           { return t.myRank }
func (t *team) Size() int           { return len(t.ranks) }
func (t *team) WorldRank(r int) int { return t.ranks[r] }

// WorldTeam returns all images.
func (s *S) WorldTeam() core.TeamRef { return s.world }

// SplitTeam is unsupported: GASNet has no group concept, so the CAF runtime
// computes memberships itself (the hand-crafted CAF 2.0 team machinery).
func (s *S) SplitTeam(core.TeamRef, int, int) (core.TeamRef, error) {
	return nil, core.ErrUnsupported
}

// MakeTeam wraps an explicit membership list, taking ownership of it.
func (s *S) MakeTeam(worldRanks []int, myRank int) (core.TeamRef, error) {
	return &team{ranks: worldRanks, myRank: myRank}, nil
}

// segment is a registered-memory coarray slab.
type segment struct {
	s    *S
	t    *team
	id   uint64
	mem  []byte
	size int
}

func (g *segment) Local() []byte { return g.mem }
func (g *segment) Bytes() int    { return g.size }

// remote resolves the target's slab.
func (g *segment) remote(target int) ([]byte, int, error) {
	world := g.t.WorldRank(target)
	mem := g.s.reg.get(g.id, world)
	if mem == nil {
		return nil, 0, fmt.Errorf("rtgasnet: image %d has no registered memory for coarray %d", world, g.id)
	}
	return mem, world, nil
}

// AllocEvents is unsupported: CAF-GASNet events ride native AMs.
func (s *S) AllocEvents(core.TeamRef, int, uint64) (core.EventBackend, error) {
	return nil, core.ErrUnsupported
}

// AllocSegment registers a fresh slab under the team-agreed id.
func (s *S) AllocSegment(t core.TeamRef, bytes int, id uint64) (core.Segment, error) {
	mem := make([]byte, bytes)
	s.reg.set(id, s.p.ID(), mem)
	s.slabsBytes += int64(bytes)
	return &segment{s: s, t: t.(*team), id: id, mem: mem, size: bytes}, nil
}

// FreeSegment drops the slab registration.
func (s *S) FreeSegment(g core.Segment) error {
	seg := g.(*segment)
	s.reg.drop(seg.id, s.p.ID())
	s.slabsBytes -= int64(seg.size)
	return nil
}

// Put is the blocking coarray write: an RDMA put (or, under Options.
// AMWrite, an AM-mediated transfer that requires target-side progress).
func (s *S) Put(g core.Segment, target, off int, data []byte) error {
	defer s.tr.Span(trace.SubstratePut)()
	seg := g.(*segment)
	mem, world, err := seg.remote(target)
	if err != nil {
		return err
	}
	t0 := s.p.Now()
	if s.opt.AMWrite && world != s.p.ID() {
		err = s.amWrite(seg, world, off, data)
	} else {
		err = s.ep.PutRegistered(world, mem, off, data)
	}
	if err != nil {
		return err
	}
	s.osh.Record(obs.LayerSubstrate, obs.OpPut, world, len(data), off, t0, s.p.Now())
	return nil
}

// Get is the blocking coarray read.
func (s *S) Get(g core.Segment, target, off int, into []byte) error {
	defer s.tr.Span(trace.SubstrateGet)()
	mem, world, err := g.(*segment).remote(target)
	if err != nil {
		return err
	}
	t0 := s.p.Now()
	if err := s.ep.GetRegistered(world, mem, off, into); err != nil {
		return err
	}
	s.osh.Record(obs.LayerSubstrate, obs.OpGet, world, len(into), off, t0, s.p.Now())
	return nil
}

// PutDeferred is an implicit-handle put, fenced by SyncNBIAll.
func (s *S) PutDeferred(g core.Segment, target, off int, data []byte) error {
	mem, world, err := g.(*segment).remote(target)
	if err != nil {
		return err
	}
	return s.ep.PutRegisteredNBI(world, mem, off, data)
}

// GetDeferred is an implicit-handle get.
func (s *S) GetDeferred(g core.Segment, target, off int, into []byte) error {
	mem, world, err := g.(*segment).remote(target)
	if err != nil {
		return err
	}
	return s.ep.GetRegisteredNBI(world, mem, off, into)
}

// completion adapts an explicit GASNet handle.
type completion struct {
	ep *gasnet.Ep
	h  *gasnet.Handle
}

// Test: explicit GASNet handles are completion-time-determined at issue, so
// testing one syncs it (advancing the virtual clock) and reports done —
// matching the MPI binding, where request tests absorb the completion time.
func (c completion) Test() bool { c.ep.SyncNB(c.h); return true }
func (c completion) Wait()      { c.ep.SyncNB(c.h) }

// PutAsyncLocal starts an explicit-handle put (local completion).
func (s *S) PutAsyncLocal(g core.Segment, target, off int, data []byte) (core.Completion, error) {
	mem, world, err := g.(*segment).remote(target)
	if err != nil {
		return nil, err
	}
	h, err := s.ep.PutRegisteredNB(world, mem, off, data)
	if err != nil {
		return nil, err
	}
	return completion{ep: s.ep, h: h}, nil
}

// GetAsync starts an explicit-handle get.
func (s *S) GetAsync(g core.Segment, target, off int, into []byte) (core.Completion, error) {
	mem, world, err := g.(*segment).remote(target)
	if err != nil {
		return nil, err
	}
	h, err := s.ep.GetRegisteredNB(world, mem, off, into)
	if err != nil {
		return nil, err
	}
	return completion{ep: s.ep, h: h}, nil
}

// AMSend carries a runtime AM as one or more native medium AMs. The header
// args are [kind, seq, chunkIdx, nChunks, nUserArgs, userArgs...]; payloads
// above gasnet.MaxMedium fragment and reassemble at the receiver.
func (s *S) AMSend(worldTarget int, kind uint8, args []uint64, payload []byte) error {
	defer s.tr.Span(trace.SubstrateAM)()
	if len(args) > gasnet.MaxArgs-5 {
		return fmt.Errorf("rtgasnet: %d runtime AM args exceed the %d available slots", len(args), gasnet.MaxArgs-5)
	}
	t0 := s.p.Now()
	defer func() {
		s.osh.Record(obs.LayerSubstrate, obs.OpAMSend, worldTarget, len(payload), int(kind), t0, s.p.Now())
	}()
	s.amSeq++
	seq := s.amSeq
	nChunks := (len(payload) + gasnet.MaxMedium - 1) / gasnet.MaxMedium
	if nChunks == 0 {
		nChunks = 1
	}
	for c := 0; c < nChunks; c++ {
		lo := c * gasnet.MaxMedium
		hi := lo + gasnet.MaxMedium
		if hi > len(payload) {
			hi = len(payload)
		}
		// hdrArgs is scratch: the AM layer copies args at injection.
		s.hdrArgs[0], s.hdrArgs[1] = uint64(kind), seq
		s.hdrArgs[2], s.hdrArgs[3], s.hdrArgs[4] = uint64(c), uint64(nChunks), uint64(len(args))
		copy(s.hdrArgs[5:], args)
		hdr := s.hdrArgs[: 5+len(args) : 5+len(args)]
		if err := s.ep.AMRequestMedium(worldTarget, hCore, payload[lo:hi], hdr...); err != nil {
			return err
		}
	}
	return nil
}

// onCoreAM reassembles fragmented runtime AMs and hands them to the CAF
// runtime's dispatcher.
func (s *S) onCoreAM(tk *gasnet.Token, hdr []uint64, chunk []byte) {
	kind := uint8(hdr[0])
	seq := hdr[1]
	ci, nc := int(hdr[2]), int(hdr[3])
	nArgs := int(hdr[4])
	args := append([]uint64(nil), hdr[5:5+nArgs]...)
	if nc == 1 {
		s.deliver(tk.Src(), kind, args, append([]byte(nil), chunk...))
		return
	}
	key := reasmKey{src: tk.Src(), seq: seq}
	pa := s.reasm[key]
	if pa == nil {
		pa = &partial{kind: kind, args: args, data: make([]byte, nc*gasnet.MaxMedium), of: nc}
		s.reasm[key] = pa
	}
	// Fragments are placed positionally: injected delays and reordering
	// (fault plans) can deliver chunks of one AM out of order, so each
	// lands at its offset rather than being appended in arrival order.
	// Every chunk but the last is exactly MaxMedium bytes, so the last
	// chunk fixes the total payload length.
	copy(pa.data[ci*gasnet.MaxMedium:], chunk)
	if ci == pa.of-1 {
		pa.total = ci*gasnet.MaxMedium + len(chunk)
	}
	pa.got++
	if pa.got == pa.of {
		delete(s.reasm, key)
		s.deliver(tk.Src(), pa.kind, pa.args, pa.data[:pa.total])
	}
}

// amWrite transfers a blocking coarray write through AMs that the *target*
// must poll to complete (Figure 2's implementation-specific hazard). Each
// chunk is acknowledged; the writer blocks until all acks return.
func (s *S) amWrite(seg *segment, world, off int, data []byte) error {
	want := s.acks
	n := 0
	for lo := 0; lo < len(data) || n == 0; lo += gasnet.MaxMedium {
		hi := lo + gasnet.MaxMedium
		if hi > len(data) {
			hi = len(data)
		}
		if err := s.ep.AMRequestMedium(world, hAMWrite, data[lo:hi], seg.id, uint64(off+lo)); err != nil {
			return err
		}
		n++
		if hi == len(data) {
			break
		}
	}
	want += int64(n)
	return s.ep.PollUntil(func() bool { return s.acks >= want })
}

func (s *S) onAMWrite(tk *gasnet.Token, args []uint64, payload []byte) {
	mem := s.reg.get(args[0], s.p.ID())
	if mem == nil {
		panic(fmt.Sprintf("rtgasnet: AM write to unknown coarray %d", args[0]))
	}
	copy(mem[args[1]:int(args[1])+len(payload)], payload)
	if err := tk.ReplyShort(hAMAck); err != nil {
		panic(err)
	}
}

func (s *S) onAMAck(*gasnet.Token, []uint64, []byte) { s.acks++ }

// Poll dispatches queued AMs.
func (s *S) Poll() { s.ep.Poll() }

// PollUntil polls until cond holds, or returns a typed error when the
// world's failure latch trips.
func (s *S) PollUntil(cond func() bool) error { return s.ep.PollUntil(cond) }

// LocalFenceScoped completes implicit operations. GASNet's NBI sync covers
// local and remote completion with O(1) counters, and its implicit-handle
// machinery fences puts and gets together, so any requested scope syncs
// everything.
func (s *S) LocalFenceScoped(puts, gets bool) error {
	defer s.tr.Span(trace.SubstrateFence)()
	if puts || gets {
		s.ep.SyncNBIAll()
	}
	return nil
}

// ReleaseFence is the event_notify fence: the same O(1) NBI sync — the
// structural advantage over CAF-MPI's per-rank FlushAll scan (Figure 4).
func (s *S) ReleaseFence() error {
	defer s.tr.Span(trace.SubstrateFence)()
	t0 := s.p.Now()
	s.ep.SyncNBIAll()
	end := s.p.Now()
	s.osh.Record(obs.LayerSubstrate, obs.OpFence, -1, 0, 0, t0, end)
	if s.osh != nil && end > t0 {
		// Fallback: the NBI-sync edge (same End, recorded first) wins ties
		// and carries the finer flush_wait split; this covers evictions.
		e := obs.Edge{Layer: obs.LayerSubstrate, Op: obs.OpFence,
			Peer: -1, Start: t0, End: end}
		e.AddComp(obs.CompFlushWait, end-t0)
		s.osh.RecordEdge(e)
	}
	return nil
}

// AllreduceAsync is unsupported: GASNet has no nonblocking collectives, so
// the runtime completes the asynchronous reduction at issue (as the
// original CAF 2.0 implementation's progress engine effectively did when
// polled immediately).
func (s *S) AllreduceAsync(core.TeamRef, []byte, []byte, elem.Kind, elem.Op) (core.Completion, error) {
	return nil, core.ErrUnsupported
}

// BcastAsync is unsupported.
func (s *S) BcastAsync(core.TeamRef, []byte, int) (core.Completion, error) {
	return nil, core.ErrUnsupported
}

// Barrier is native for TEAM_WORLD (gasnet_barrier); subteam barriers are
// hand-crafted by the runtime.
func (s *S) Barrier(t core.TeamRef) error {
	if t.Size() == s.p.N() {
		return s.ep.Barrier()
	}
	return core.ErrUnsupported
}

// Bcast is unsupported: GASNet has no collectives (§4.2).
func (s *S) Bcast(core.TeamRef, []byte, int) error { return core.ErrUnsupported }

// Reduce is unsupported.
func (s *S) Reduce(core.TeamRef, []byte, []byte, elem.Kind, elem.Op, int) error {
	return core.ErrUnsupported
}

// Allreduce is unsupported.
func (s *S) Allreduce(core.TeamRef, []byte, []byte, elem.Kind, elem.Op) error {
	return core.ErrUnsupported
}

// Alltoall is unsupported — the runtime's put+AM construction takes over,
// which is the root of the FFT gap the paper analyzes (Figure 8).
func (s *S) Alltoall(core.TeamRef, []byte, []byte) error { return core.ErrUnsupported }

// Allgather is unsupported.
func (s *S) Allgather(core.TeamRef, []byte, []byte) error { return core.ErrUnsupported }

// MemoryFootprint reports the GASNet conduit's memory plus registered
// coarray slabs (Figure 1: far below an MPI instance).
func (s *S) MemoryFootprint() int64 { return s.ep.MemoryFootprint() + s.slabsBytes }
