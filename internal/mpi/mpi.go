// Package mpi is an MPI-3 implementation for simulated images. It provides
// the subset of the standard that the paper's CAF-MPI runtime is built on:
// communicators and groups, tagged two-sided messaging with wildcards and
// request objects, the blocking collectives and the two nonblocking ones
// behind CAF's asynchronous team operations, and the MPI-3 RMA interface
// (allocated windows, passive-target lock_all epochs, put/get/accumulate/
// fetch-and-op/compare-and-swap, request-generating Rput/Rget, flush/
// flush_all) plus the MPI_WIN_RFLUSH extension the paper proposes in §5.
//
// Each image calls Init once; all communication charges virtual time
// through the fabric cost model. Data movement is real: payloads and window
// memory are actual bytes, so programs are validated for correctness while
// the clocks reproduce scaling behaviour.
package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
	"cafmpi/internal/sanitizer"
	"cafmpi/internal/sim"
)

// Wildcards and limits.
const (
	AnySource = -1
	AnyTag    = -1
	// ProcNull is a no-op peer: sends to it vanish, receives from it error.
	ProcNull = -2
	// TagUB is the largest user tag; internal traffic uses tags above it.
	TagUB = 1 << 24
)

// Message classes on the fabric layer.
const (
	clsP2P uint8 = iota + 1
	clsColl
)

// worldState is shared by every image's Env: context-id allocation, the
// window directory and the communicator groups.
type worldState struct {
	nextCtx atomic.Int64
	world   *group // COMM_WORLD's group, immutable
	mu      sync.Mutex
	wins    map[string]*winShared // guarded by mu
	groups  map[groupKey]*group   // guarded by mu
}

// groupKey names a Split's group world-wide: (context id, first world
// rank), the identity the window registry keys on.
type groupKey struct{ ctx, first int }

// group is a communicator's immutable rank table, shared by every member's
// Comm and every Dup of it: one per communicator, not one per image.
type group struct {
	ranks []int // comm rank -> world rank
	// worldToRank inverts ranks (world rank -> comm rank, -1 outside), so
	// wildcard matching and status translation are O(1) per message.
	worldToRank []int32
}

func newGroup(worldSize int, ranks []int) *group {
	g := &group{ranks: ranks, worldToRank: make([]int32, worldSize)}
	for i := range g.worldToRank {
		g.worldToRank[i] = -1
	}
	for r, wr := range ranks {
		g.worldToRank[wr] = int32(r)
	}
	return g
}

// internGroup returns the world's one group for a Split result, built from
// the first member's ranks; the others' (equal) ranks are dropped.
func (ws *worldState) internGroup(worldSize, ctx int, ranks []int) *group {
	key := groupKey{ctx, ranks[0]}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	g, ok := ws.groups[key]
	if !ok {
		g = newGroup(worldSize, ranks)
		ws.groups[key] = g
	}
	return g
}

// Env is one image's MPI library instance (the result of MPI_Init).
type Env struct {
	p     *sim.Proc
	net   *fabric.Net
	layer *fabric.Layer
	ep    *fabric.Endpoint
	ws    *worldState

	world *Comm

	mu     sync.Mutex // guards posted (CompleteAt may come from peers)
	posted []*Request // posted receives, in post order

	// progSpec is the cached posted-receive matcher handed to the endpoint;
	// binding Filter once at Init removes the per-poll closure allocation the
	// progress engine used to pay. Its Filter reads posted, so every
	// endpoint call using it must run under mu.
	progSpec fabric.MatchSpec

	// sh is this image's observability shard, nil when off; cached at Init
	// so RMA/p2p hot paths pay a nil check only.
	sh *obs.Shard

	// san is this image's sanitizer handle, nil when off (methods are
	// nil-safe); cached at Init like sh.
	san *sanitizer.Image

	// On-demand connection model (scalable-sync mode): instead of
	// preallocating per-peer eager pools and connection state for the whole
	// world at Init, each peer's share (perPeerBytes) is charged to the
	// footprint when that peer is first messaged — MVAPICH-style on-demand
	// connections. connected tracks world ranks already established.
	onDemand     bool
	connected    fabric.PeerSet
	perPeerBytes int64

	footprint int64
	finalized bool
}

// Init initializes MPI on image p. The returned Env is private to the
// image's goroutine. Calling Init twice on one image is an error in MPI;
// here each call returns a fresh independent Env, which tests exploit.
func Init(p *sim.Proc, net *fabric.Net) *Env {
	ws := p.World().Shared("mpi.world", func() any {
		ranks := make([]int, p.N())
		for i := range ranks {
			ranks[i] = i
		}
		w := &worldState{world: newGroup(p.N(), ranks), wins: make(map[string]*winShared),
			groups: make(map[groupKey]*group)}
		w.nextCtx.Store(2) // 0,1 reserved for COMM_WORLD
		return w
	}).(*worldState)

	env := &Env{
		p:     p,
		net:   net,
		layer: net.Layer("mpi"),
		ws:    ws,
	}
	env.ep = env.layer.Endpoint(p.ID())
	env.sh = obs.For(p)
	env.san = sanitizer.For(p)
	env.progSpec = fabric.MatchSpec{Classes: fabric.Classes(clsP2P), Src: fabric.AnySrc, Filter: env.postedFilter}

	env.world = newComm(env, ws.world, p.ID(), 0)

	// Connection state and per-peer eager buffer pools: MPICH derivatives
	// preallocate these, which is what makes the MPI runtime's memory
	// footprint grow with job size (Figure 1). The scalable-sync mode
	// switches to on-demand connections: only BaseFootprint up front, each
	// peer's share charged at first contact (see connect), keeping the
	// per-image footprint proportional to the communication graph degree.
	c := net.Params().MPI
	perPeer := int64(c.EagerSlotsPerPeer*c.EagerSlotBytes + c.PeerStateBytes)
	if c.SparseFlush {
		env.onDemand = true
		env.perPeerBytes = perPeer
		env.connected.Init(p.N())
		env.footprint = c.BaseFootprint
	} else {
		env.footprint = c.BaseFootprint + int64(p.N())*perPeer
	}
	return env
}

// connect charges per-peer connection state for world rank dst on first
// contact (on-demand mode only; no-op otherwise). Every path that first
// talks to a peer funnels through here: two-sided sends (isendCtx) and
// RMA issue (epoch.touch).
func (e *Env) connect(dst int) {
	if !e.onDemand || dst == e.p.ID() {
		return
	}
	if e.connected.Add(dst) {
		atomic.AddInt64(&e.footprint, e.perPeerBytes)
	}
}

// Proc returns the owning simulated image.
func (e *Env) Proc() *sim.Proc { return e.p }

// CommWorld returns MPI_COMM_WORLD.
func (e *Env) CommWorld() *Comm { return e.world }

// MemoryFootprint returns the bytes of memory this MPI instance holds:
// the modeled base runtime plus per-peer eager pools plus window memory.
func (e *Env) MemoryFootprint() int64 { return atomic.LoadInt64(&e.footprint) }

// Finalize marks the environment finalized. Communication after Finalize
// panics, mirroring MPI semantics closely enough for tests.
func (e *Env) Finalize() { e.finalized = true }

func (e *Env) checkLive() {
	if e.finalized {
		panic("mpi: communication after Finalize")
	}
}

// costs returns the platform's MPI layer costs.
func (e *Env) costs() *fabric.MPICosts { return &e.net.Params().MPI }

// Comm is an MPI communicator: an ordered group of world ranks plus an
// isolated matching context.
type Comm struct {
	env *Env
	*group
	myRank int // this image's rank within the comm
	ctx    int // base context id; ctx is p2p, ctx+1 collectives

	// Cached endpoint match specs with their filters bound once. A Comm is
	// private to its image's goroutine, so mutating a spec's Before between
	// calls is unshared state, not a race.
	probeSpec fabric.MatchSpec // IprobeAny: any source in the group, any tag
	ctxSpec   fabric.MatchSpec // any p2p message addressed to this context

	winSeq   int // windows created on this comm so far (collective order)
	icollSeq int // nonblocking collectives issued so far (collective order)
}

// newComm builds a communicator over the shared group g with its cached
// match specs. Every Comm must be created through it.
func newComm(env *Env, g *group, myRank, ctx int) *Comm {
	c := &Comm{env: env, group: g, myRank: myRank, ctx: ctx}
	c.probeSpec = fabric.MatchSpec{Classes: fabric.Classes(clsP2P), Src: fabric.AnySrc, Filter: c.probeFilter}
	c.ctxSpec = fabric.MatchSpec{Classes: fabric.Classes(clsP2P), Src: fabric.AnySrc, Before: fabric.NoTimeGate, Filter: c.ctxFilter}
	return c
}

// probeFilter matches any message from a group member on this context (an
// MPI_ANY_SOURCE, MPI_ANY_TAG probe); it runs under the endpoint lock.
func (c *Comm) probeFilter(m *fabric.Message) bool {
	return m.Ctx == c.ctx && c.worldToRank[m.Src] >= 0
}

// ctxFilter matches any point-to-point message addressed to this
// communicator's context.
func (c *Comm) ctxFilter(m *fabric.Message) bool { return m.Ctx == c.ctx }

// Rank returns the calling image's rank in the communicator.
func (c *Comm) Rank() int { return c.myRank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.ranks[r] }

// Dup returns a duplicate communicator with a fresh context over the same
// group (collective).
func (c *Comm) Dup() (*Comm, error) {
	ctx, err := c.allocCtx()
	if err != nil {
		return nil, err
	}
	return newComm(c.env, c.group, c.myRank, ctx), nil
}

// Split partitions the communicator by color, ordering each new group by
// (key, old rank), like MPI_Comm_split. A negative color returns nil
// (MPI_UNDEFINED): the image belongs to no new communicator but still
// participates in the collective.
func (c *Comm) Split(color, key int) (*Comm, error) {
	pairs := make([]int32, 2*c.Size())
	me := []int32{int32(color), int32(key)}
	if err := c.Allgather(I32Bytes(me), I32Bytes(pairs), Int32); err != nil {
		return nil, err
	}
	ctx, err := c.allocCtx()
	if err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	type member struct{ key, oldRank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		if int(pairs[2*r]) == color {
			members = append(members, member{int(pairs[2*r+1]), r})
		}
	}
	// Members are in old-rank order, so a stable sort by key orders them by
	// (key, old rank).
	slices.SortStableFunc(members, func(a, b member) int { return cmp.Compare(a.key, b.key) })
	ranks := make([]int, 0, len(members))
	myRank := 0
	for i, m := range members {
		ranks = append(ranks, c.ranks[m.oldRank])
		if m.oldRank == c.myRank {
			myRank = i
		}
	}
	return newComm(c.env, c.env.ws.internGroup(c.env.p.N(), ctx, ranks), myRank, ctx), nil
}

// allocCtx performs the collective context-id agreement: the group's rank 0
// draws from the world allocator and broadcasts within the parent. Each
// split/dup consumes two context ids (p2p + collectives).
func (c *Comm) allocCtx() (int, error) {
	var ctx int64
	if c.myRank == 0 {
		ctx = c.env.ws.nextCtx.Add(2) - 2
	}
	buf := []int64{ctx}
	if err := c.Bcast(I64Bytes(buf), Int64, 0); err != nil {
		return 0, err
	}
	return int(buf[0]), nil
}

// commRankOfWorld maps a world rank back into this communicator.
func (c *Comm) commRankOfWorld(world int) int {
	return int(c.worldToRank[world])
}

func (c *Comm) checkRank(r int, what string) error {
	if r < 0 || r >= len(c.ranks) {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, r, len(c.ranks))
	}
	return nil
}

// Block parks this image on its MPI endpoint until pass returns true
// (fabric.Endpoint.Block under op's name): the blocking network poll that
// CAF-MPI's event_wait is built on (§3.4). Between passes the clock advances
// to the earliest message queued for comm, scanned after pass so that an
// arrival during pass is seen before the next charged pass; with a nil comm
// the image parks until endpoint activity instead.
func (e *Env) Block(op string, comm *Comm, pass func() bool) error {
	return e.ep.Block(e.p, op, func() (bool, int64, bool) {
		if pass() {
			return true, 0, false
		}
		if comm == nil {
			return false, 0, false
		}
		st := e.ep.PollStateFor(&comm.ctxSpec)
		return false, st.Earliest, st.HasEarliest
	})
}
