// Package gasnet implements a GASNet-1 style communication system: the core
// API (active messages in short and medium flavors with request/reply
// semantics and explicit polling progress), the extended API (one-sided
// put/get against registered remote memory, with blocking,
// non-blocking-explicit and non-blocking-implicit completion, plus
// explicit-handle put/get against the attached segments), and a split-phase
// barrier.
//
// Deliberately missing — as in the GASNet of the paper's era — are
// collectives: clients (the CAF-GASNet runtime) hand-craft them from puts,
// gets and AMs, which is the root of the FFT all-to-all gap in the paper's
// Figures 6-8.
//
// The InfiniBand conduit's Shared Receive Queue behaviour is modeled: when
// the job is large enough that the SRQ saturates (fabric.SRQModel), every
// AM receive pays a multiplied cost. RDMA puts and gets bypass the SRQ.
package gasnet

import (
	"fmt"
	"sync"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/wallprof"
	"cafmpi/internal/sanitizer"
	"cafmpi/internal/sim"
)

// Limits mirroring gasnet_AMMaxArgs() and gasnet_AMMaxMedium().
const (
	MaxArgs   = 16
	MaxMedium = 8 << 10
)

// HandlerID indexes the AM handler table. GASNet reserves 0-127 for the
// system; clients register in [MinHandlerID, MaxHandlerID].
type HandlerID int

const (
	MinHandlerID HandlerID = 128
	MaxHandlerID HandlerID = 255
)

// Handler is an active-message handler. It runs on the target image's
// goroutine during a Poll. payload is nil for short AMs and a scratch
// buffer for medium AMs. The handler may send at most one reply through the
// token.
type Handler func(tk *Token, args []uint64, payload []byte)

// Message classes on the gasnet fabric layer.
const (
	clsAMRequest uint8 = iota + 1
	clsAMReply
	clsBarrier
)

// AM categories carried in Message.Tag alongside the handler id.
const (
	catShort = iota
	catMedium
)

// shared is the world-wide registry of attached segments.
type shared struct {
	mu   sync.Mutex
	segs [][]byte
}

// Ep is one image's GASNet endpoint.
type Ep struct {
	p     *sim.Proc
	net   *fabric.Net
	layer *fabric.Layer
	fep   *fabric.Endpoint
	sh    *shared

	handlers [256]Handler

	// Implicit-handle (NBI) op tracking: the latest remote completion time
	// of outstanding implicit puts/gets. GASNet tracks these with O(1)
	// counters, so syncing them does not scale with job size — unlike
	// MPI_WIN_FLUSH_ALL's per-rank scan.
	nbiRemote int64
	nbiCount  int

	// Scalable-sync mode (fabric.Params.SparseSync): per-peer segment
	// registration metadata is charged on first contact instead of for the
	// whole world at Attach, and nbiDirty tracks which peers the current
	// NBI access region touched so SyncNBIAll can fence exactly those for
	// the sanitizer. worldScratch is the reusable sorted-rank buffer.
	sparse       bool
	connected    fabric.PeerSet
	nbiDirty     fabric.PeerSet
	peerBytes    int64
	worldScratch []int

	barrierGen int
	footprint  int64

	// Cached endpoint match specs with filters bound once at Attach, so the
	// poll and barrier paths allocate no per-call closures. brTag/brSrc stage
	// the current barrier round for brSpec's filter. An Ep is private to its
	// image's goroutine, so mutating them between calls is unshared state.
	amSpec fabric.MatchSpec // any active message (request or reply)
	brSpec fabric.MatchSpec // AMs, plus the staged barrier-round message
	brTag  int
	brSrc  int

	// osh is this image's observability shard, nil when off; cached at
	// Attach so AM and RDMA hot paths pay a nil check only.
	osh *obs.Shard
	san *sanitizer.Image // nil when sanitizing is off (methods are nil-safe)
	wp  *wallprof.Rec    // wall-clock recorder, nil when wallprof is off
}

// HandlerEntry binds a handler id to its function for Attach, mirroring
// the gasnet_handlerentry_t table passed to gasnet_attach.
type HandlerEntry struct {
	ID HandlerID
	Fn Handler
}

// Attach initializes the endpoint with a segment of segSize bytes and the
// given AM handler table, registers the segment world-wide, and
// synchronizes with all other images (every image must call Attach before
// any returns). As in real GASNet, the handler table is fixed at attach
// time: the attach barrier itself polls AMs, so handlers must exist before
// any peer can target them. RegisterHandler can add more afterwards, but
// only for ids no peer uses before the registration is globally ordered
// (e.g. by a barrier).
func Attach(p *sim.Proc, net *fabric.Net, segSize int, handlers ...HandlerEntry) (*Ep, error) {
	if segSize < 0 {
		return nil, fmt.Errorf("gasnet: negative segment size %d", segSize)
	}
	sh := p.World().Shared("gasnet.segs", func() any {
		return &shared{segs: make([][]byte, p.N())}
	}).(*shared)
	e := &Ep{
		p:     p,
		net:   net,
		layer: net.Layer("gasnet"),
		sh:    sh,
	}
	e.fep = e.layer.Endpoint(p.ID())
	e.osh = obs.For(p)
	e.san = sanitizer.For(p)
	e.wp = wallprof.For(p)
	e.amSpec = fabric.MatchSpec{Classes: fabric.Classes(clsAMRequest, clsAMReply), Src: fabric.AnySrc}
	e.brSpec = fabric.MatchSpec{Classes: fabric.Classes(clsAMRequest, clsAMReply, clsBarrier), Src: fabric.AnySrc, Filter: e.barrierFilter}
	sh.mu.Lock()
	sh.segs[p.ID()] = make([]byte, segSize)
	sh.mu.Unlock()

	for _, h := range handlers {
		if err := e.RegisterHandler(h.ID, h.Fn); err != nil {
			return nil, err
		}
	}

	// Per-peer segment registration metadata: the conduit normally pins and
	// exchanges rkeys for every peer's segment at attach (footprint grows
	// with the world, Figure 1); scalable-sync mode registers peers on
	// first contact instead.
	c := net.Params().GASNet
	e.sparse = net.Params().SparseSync()
	if e.sparse {
		e.connected.Init(p.N())
		e.nbiDirty.Init(p.N())
		e.peerBytes = int64(c.PeerBytes)
		e.footprint = c.BaseFootprint + int64(segSize)
	} else {
		e.footprint = c.BaseFootprint + int64(p.N()*c.PeerBytes) + int64(segSize)
	}

	// Everyone must see every segment before one-sided traffic starts.
	if err := e.Barrier(); err != nil {
		return nil, err
	}
	return e, nil
}

// MemoryFootprint returns the bytes held by this GASNet instance: conduit
// state, per-peer segment registration metadata, and the segment itself.
// GASNet keeps most metadata in user-space buffers, so this is far smaller
// than an MPI instance (paper Figure 1).
func (e *Ep) MemoryFootprint() int64 { return e.footprint }

// RegisterHandler installs fn at id. Handlers must be registered before
// any image sends to them; ids must be in the client range.
func (e *Ep) RegisterHandler(id HandlerID, fn Handler) error {
	if id < MinHandlerID || id > MaxHandlerID {
		return fmt.Errorf("gasnet: handler id %d outside client range [%d,%d]", id, MinHandlerID, MaxHandlerID)
	}
	if e.handlers[id] != nil {
		return fmt.Errorf("gasnet: handler id %d already registered", id)
	}
	e.handlers[id] = fn
	return nil
}

func (e *Ep) costs() *fabric.GASNetCosts { return &e.net.Params().GASNet }

func (e *Ep) checkAM(dst int, h HandlerID, args []uint64, payload []byte, cat int) error {
	if dst < 0 || dst >= e.p.N() {
		return fmt.Errorf("gasnet: AM destination %d out of range", dst)
	}
	if h < MinHandlerID || h > MaxHandlerID {
		return fmt.Errorf("gasnet: AM handler id %d outside client range", h)
	}
	if len(args) > MaxArgs {
		return fmt.Errorf("gasnet: %d AM arguments exceed MaxArgs=%d", len(args), MaxArgs)
	}
	if cat == catMedium && len(payload) > MaxMedium {
		return fmt.Errorf("gasnet: medium AM payload %d exceeds MaxMedium=%d", len(payload), MaxMedium)
	}
	return nil
}

// AMRequestShort sends a short active message carrying only integer args.
func (e *Ep) AMRequestShort(dst int, h HandlerID, args ...uint64) error {
	if err := e.checkAM(dst, h, args, nil, catShort); err != nil {
		return err
	}
	t0 := e.p.Now()
	m := fabric.NewMessage()
	m.Dst, m.Class, m.Ctx, m.Tag, m.Args = dst, clsAMRequest, int(h), catShort, args
	if err := e.layer.Send(e.p, m); err != nil {
		return err
	}
	e.noteAMSent(dst, 0, h, t0)
	return nil
}

// AMRequestMedium sends an AM with an opaque payload delivered to a
// temporary buffer at the target.
func (e *Ep) AMRequestMedium(dst int, h HandlerID, payload []byte, args ...uint64) error {
	if err := e.checkAM(dst, h, args, payload, catMedium); err != nil {
		return err
	}
	t0 := e.p.Now()
	m := fabric.NewMessage()
	m.Dst, m.Class, m.Ctx, m.Tag, m.Args, m.Data = dst, clsAMRequest, int(h), catMedium, args, payload
	if err := e.layer.Send(e.p, m); err != nil {
		return err
	}
	e.noteAMSent(dst, len(payload), h, t0)
	return nil
}

// connect charges per-peer segment registration metadata for dst on first
// contact (scalable-sync mode only; no-op otherwise). All AM and RDMA
// issue paths funnel through it.
func (e *Ep) connect(dst int) {
	if !e.sparse || dst == e.p.ID() {
		return
	}
	if e.connected.Add(dst) {
		e.footprint += e.peerBytes
	}
}

// noteAMSent records an AM-send event and counter.
func (e *Ep) noteAMSent(dst, plen int, h HandlerID, t0 int64) {
	e.connect(dst)
	if e.osh == nil {
		return
	}
	e.osh.Record(obs.LayerGASNet, obs.OpAMSend, dst, plen, int(h), t0, e.p.Now())
	e.osh.Add(obs.CtrAMsSent, 1)
}

// Token is the reply capability passed to AM handlers.
type Token struct {
	ep      *Ep
	src     int
	replied bool
}

// Src returns the requesting image.
func (tk *Token) Src() int { return tk.src }

// ReplyShort sends the (single permitted) short reply to the requester.
func (tk *Token) ReplyShort(h HandlerID, args ...uint64) error {
	if tk.replied {
		return fmt.Errorf("gasnet: handler already replied")
	}
	if err := tk.ep.checkAM(tk.src, h, args, nil, catShort); err != nil {
		return err
	}
	tk.replied = true
	t0 := tk.ep.p.Now()
	m := fabric.NewMessage()
	m.Dst, m.Class, m.Ctx, m.Tag, m.Args = tk.src, clsAMReply, int(h), catShort, args
	if err := tk.ep.layer.Send(tk.ep.p, m); err != nil {
		return err
	}
	tk.ep.noteAMSent(tk.src, 0, h, t0)
	return nil
}

// barrierFilter passes any active message (blocking barrier rounds poll AMs,
// as conduits do inside blocking calls) plus the one barrier message of the
// round staged in brTag/brSrc. It runs under the endpoint lock.
func (e *Ep) barrierFilter(m *fabric.Message) bool {
	if m.Class != clsBarrier {
		return true
	}
	return m.Tag == e.brTag && m.Src == e.brSrc
}

// Poll drains and dispatches the queued active messages that have arrived
// in virtual time, running their handlers on this goroutine. It returns
// the number of AMs processed. GASNet progress is explicit: no handler
// runs unless the image polls (or blocks inside a GASNet call that polls).
// Delivery is gated on virtual time: a message whose arrival stamp is in
// this image's future has not physically arrived yet; dispatching it early
// would advance the local clock to the (possibly far-ahead) sender's time
// and let skew compound across images.
func (e *Ep) Poll() int {
	e.osh.Add(obs.CtrPolls, 1)
	n := 0
	for {
		e.amSpec.Before = e.p.Now()
		m, _ := e.fep.TryRecvSpec(&e.amSpec)
		if m == nil {
			if n == 0 {
				e.p.Advance(e.costs().PollNS)
			}
			return n
		}
		e.dispatch(m)
		n++
	}
}

func (e *Ep) dispatch(m *fabric.Message) {
	c := e.costs()
	plen := len(m.Data)
	// SRQ saturation: once the job exceeds the shared receive queue's
	// threshold, every AM queues behind other processes' receive traffic —
	// modeled as an extra delivery delay of (factor-1) x (wire latency +
	// receive path) per message, which is what halves RandomAccess on
	// Fusion beyond 128 ranks (Figure 3).
	extra := c.AMNS
	if pen := c.SRQ.Penalty(e.p.N()); pen > 1 {
		extra += int64((pen - 1) * float64(e.net.Params().LatencyNS+e.net.Params().RecvOverheadNS+e.net.Params().WireTime(plen)))
	}
	t0 := e.p.Now()
	e.layer.AbsorbAM(e.p, m, c.AMNS, extra-c.AMNS)
	if e.osh != nil {
		e.osh.Record(obs.LayerGASNet, obs.OpAMDeliver, m.Src, plen, m.Ctx, t0, e.p.Now())
		e.osh.Add(obs.CtrAMsDelivered, 1)
		// The SRQ stall is the delivery cost beyond the base AM overhead.
		e.osh.Add(obs.CtrSRQStallNS, extra-c.AMNS)
		if extra > c.AMNS {
			e.osh.Add(obs.CtrSRQStalls, 1)
		}
	}

	h := e.handlers[m.Ctx]
	if h == nil {
		panic(fmt.Sprintf("gasnet: image %d received AM for unregistered handler %d", e.p.ID(), m.Ctx))
	}
	// Host-time blame for handler execution only (wallprof SiteGASNetAM):
	// the absorb above is already covered by SiteFabricAbsorb, so the two
	// sites stay disjoint for the divergence report's residual math.
	wt := e.wp.Begin(wallprof.SiteGASNetAM)
	tk := &Token{ep: e, src: m.Src}
	switch m.Tag {
	case catShort:
		h(tk, m.Args, nil)
	case catMedium:
		h(tk, m.Args, m.Data)
	}
	e.wp.End(wallprof.SiteGASNetAM, wt)
	// GASNet handlers may not retain args or payload past their return
	// (medium payloads are explicitly scratch), so the message recycles here.
	m.Release()
}

// PollUntil polls until cond becomes true. While blocked it advances
// virtual time to the earliest queued arrival (a blocking poll *is* a
// virtual-time wait) and otherwise parks until real activity. It returns
// early with a typed error when the world's failure latch trips, so waits
// on a crashed peer unblock instead of deadlocking.
func (e *Ep) PollUntil(cond func() bool) error {
	return e.fep.Block(e.p, "poll_until", func() (bool, int64, bool) {
		e.Poll()
		if cond() {
			return true, 0, false
		}
		st := e.fep.PollStateFor(&e.amSpec)
		return false, st.Earliest, st.HasEarliest
	})
}

// seg returns image dst's segment (after Attach's barrier this is stable).
func (e *Ep) seg(dst int) []byte {
	e.sh.mu.Lock()
	defer e.sh.mu.Unlock()
	return e.sh.segs[dst]
}

func (e *Ep) checkSeg(dst, off, n int, what string) error {
	if dst < 0 || dst >= e.p.N() {
		return fmt.Errorf("gasnet: %s destination %d out of range", what, dst)
	}
	if s := e.seg(dst); off < 0 || off+n > len(s) {
		return fmt.Errorf("gasnet: %s range [%d,%d) outside segment of %d bytes", what, off, off+n, len(s))
	}
	return nil
}

// Handle is an explicit non-blocking operation handle (gasnet_handle_t).
type Handle struct {
	localT  int64
	remoteT int64
}

// PutNB starts a non-blocking put and returns an explicit handle. Syncing
// the handle waits for *local* completion (source buffer reusable); the
// handle also records remote completion for quiet-style fences.
func (e *Ep) PutNB(dst, dstOff int, src []byte) (*Handle, error) {
	if err := e.checkSeg(dst, dstOff, len(src), "put"); err != nil {
		return nil, err
	}
	e.connect(dst)
	t0 := e.p.Now()
	done := e.layer.RMAPut(e.p, dst, len(src), e.costs().PutNS)
	copy(e.seg(dst)[dstOff:], src)
	if e.osh != nil {
		e.osh.Record(obs.LayerGASNet, obs.OpPut, dst, len(src), 0, t0, e.p.Now())
		e.osh.Add(obs.CtrRDMAPuts, 1)
		e.osh.Add(obs.CtrRDMABytes, int64(len(src)))
	}
	return &Handle{localT: e.p.Now(), remoteT: done}, nil
}

// GetNB starts a non-blocking get. The data lands in into; it must not be
// read until the handle syncs.
func (e *Ep) GetNB(dst, dstOff int, into []byte) (*Handle, error) {
	if err := e.checkSeg(dst, dstOff, len(into), "get"); err != nil {
		return nil, err
	}
	e.connect(dst)
	t0 := e.p.Now()
	e.p.Advance(e.costs().GetNS)
	copy(into, e.seg(dst)[dstOff:])
	pr := e.net.Params()
	done := e.p.Now() + 2*pr.PathLatency(e.p.ID(), dst) + pr.PathWireTime(e.p.ID(), dst, len(into))
	e.noteGet(dst, len(into), t0)
	return &Handle{localT: done, remoteT: done}, nil
}

// noteGet records a one-sided read's event, counters, and comm-matrix entry.
func (e *Ep) noteGet(dst, n int, t0 int64) {
	if e.osh == nil {
		return
	}
	e.osh.Record(obs.LayerGASNet, obs.OpGet, dst, n, 0, t0, e.p.Now())
	e.osh.Add(obs.CtrRDMAGets, 1)
	e.osh.Add(obs.CtrRDMABytes, int64(n))
	e.osh.CommAdd(dst, int64(n))
}

// noteNBI folds a handle into the implicit access region. dst feeds the
// sparse mode's dirty set so SyncNBIAll knows which peers' deferred gets
// it actually completes.
func (e *Ep) noteNBI(h *Handle, dst int) {
	if h.remoteT > e.nbiRemote {
		e.nbiRemote = h.remoteT
	}
	e.nbiCount++
	if e.sparse {
		e.nbiDirty.Add(dst)
	}
}

// SyncNB blocks until the explicit handle's operation completes locally.
func (e *Ep) SyncNB(h *Handle) {
	t0 := e.p.Now()
	e.p.AdvanceTo(h.localT)
	if end := e.p.Now(); e.osh != nil && end > t0 {
		e.osh.Record(obs.LayerGASNet, obs.OpNBISync, -1, 0, 0, t0, end)
	}
}

// SyncNBIAll fences every outstanding implicit operation to *global*
// completion. The IB conduit tracks these with O(1) completion counters,
// so the cost does not scale with the number of peers — contrast with
// MPI_WIN_FLUSH_ALL's per-rank scan (paper §4.1).
func (e *Ep) SyncNBIAll() {
	t0 := e.p.Now()
	synced := e.nbiCount
	e.p.Advance(e.costs().PollNS)
	pre := e.p.Now()
	e.p.AdvanceTo(e.nbiRemote)
	e.nbiCount = 0
	e.nbiRemote = 0
	// NBI sync completes implicit gets: their destinations become defined.
	// In scalable-sync mode only the peers the access region touched gain
	// the happens-before edge; gets from untouched peers stay undefined so
	// the sanitizer still catches reads racing with them.
	if e.sparse {
		e.worldScratch = e.nbiDirty.AppendSorted(e.worldScratch[:0])
		e.san.FenceLocalPeers(e.worldScratch)
		e.nbiDirty.Clear()
	} else {
		e.san.FenceLocal()
	}
	if e.osh != nil {
		end := e.p.Now()
		e.osh.Record(obs.LayerGASNet, obs.OpNBISync, -1, 0, synced, t0, end)
		e.osh.Add(obs.CtrNBISyncs, 1)
		if end > t0 {
			ed := obs.Edge{Layer: obs.LayerGASNet, Op: obs.OpNBISync,
				Peer: -1, Start: t0, End: end}
			ed.AddComp(obs.CompOverhead, e.costs().PollNS)
			ed.AddComp(obs.CompFlushWait, end-pre)
			e.osh.RecordEdge(ed)
		}
	}
}

// BarrierNotify begins a split-phase barrier (gasnet_barrier_notify). It
// returns a typed error when the failure latch trips mid-barrier (ULFM
// semantics: collectives over a dead image fail rather than hang).
func (e *Ep) BarrierNotify() error {
	n := e.p.N()
	gen := e.barrierGen
	e.barrierGen++
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (e.p.ID() + k) % n
		bm := fabric.NewMessage()
		bm.Dst, bm.Class, bm.Tag = dst, clsBarrier, gen*64+round
		if err := e.layer.Send(e.p, bm); err != nil {
			return err
		}
		// Wait for this round's message, progressing AMs that have arrived
		// meanwhile (conduits poll inside blocking calls).
		e.brTag = gen*64 + round
		e.brSrc = (e.p.ID() - k + n) % n
		for {
			m, err := e.blockingRecv(&e.brSpec)
			if err != nil {
				return err
			}
			if m.Class == clsBarrier {
				e.layer.Absorb(e.p, m, 0)
				m.Release()
				break
			}
			e.dispatch(m)
		}
	}
	return nil
}

// blockingRecv returns the next message matching spec, preferring ones that
// have arrived in virtual time and advancing the clock to the earliest
// matching arrival when only future ones are queued. It unblocks with a
// typed error when the failure latch trips.
func (e *Ep) blockingRecv(spec *fabric.MatchSpec) (*fabric.Message, error) {
	var m *fabric.Message
	err := e.fep.Block(e.p, "recv", func() (bool, int64, bool) {
		spec.Before = e.p.Now()
		var st fabric.PollState
		m, st = e.fep.TryRecvSpec(spec)
		return m != nil, st.Earliest, st.HasEarliest
	})
	return m, err
}

// BarrierWait completes the split-phase barrier. The dissemination work is
// performed in BarrierNotify; Wait is the completion point.
func (e *Ep) BarrierWait() error { return nil }

// Barrier is the blocking composition of notify and wait.
func (e *Ep) Barrier() error {
	if err := e.BarrierNotify(); err != nil {
		return err
	}
	return e.BarrierWait()
}

// Registered-memory RDMA: real GASNet conduits can target any registered
// remote memory (firehose), not just the attached segment. The CAF-GASNet
// runtime uses these to serve coarrays allocated outside the segment. The
// caller resolves the remote slab; costs are identical to segment puts.

func (e *Ep) checkReg(dst, off, n int, mem []byte, what string) error {
	if dst < 0 || dst >= e.p.N() {
		return fmt.Errorf("gasnet: %s destination %d out of range", what, dst)
	}
	if off < 0 || off+n > len(mem) {
		return fmt.Errorf("gasnet: %s range [%d,%d) outside registered region of %d bytes", what, off, off+n, len(mem))
	}
	return nil
}

// PutRegisteredNB starts a non-blocking RDMA write into registered remote
// memory mem (owned by image dst) at off.
func (e *Ep) PutRegisteredNB(dst int, mem []byte, off int, src []byte) (*Handle, error) {
	if err := e.checkReg(dst, off, len(src), mem, "put"); err != nil {
		return nil, err
	}
	e.connect(dst)
	t0 := e.p.Now()
	done := e.layer.RMAPut(e.p, dst, len(src), e.costs().PutNS)
	copy(mem[off:], src)
	if e.osh != nil {
		e.osh.Record(obs.LayerGASNet, obs.OpPut, dst, len(src), 0, t0, e.p.Now())
		e.osh.Add(obs.CtrRDMAPuts, 1)
		e.osh.Add(obs.CtrRDMABytes, int64(len(src)))
	}
	return &Handle{localT: e.p.Now(), remoteT: done}, nil
}

// PutRegistered blocks until the write is globally complete.
func (e *Ep) PutRegistered(dst int, mem []byte, off int, src []byte) error {
	h, err := e.PutRegisteredNB(dst, mem, off, src)
	if err != nil {
		return err
	}
	e.p.AdvanceTo(h.remoteT)
	return nil
}

// PutRegisteredNBI is the implicit-handle form; SyncNBIAll fences it.
func (e *Ep) PutRegisteredNBI(dst int, mem []byte, off int, src []byte) error {
	h, err := e.PutRegisteredNB(dst, mem, off, src)
	if err != nil {
		return err
	}
	e.noteNBI(h, dst)
	return nil
}

// GetRegisteredNB starts a non-blocking RDMA read from registered remote
// memory.
func (e *Ep) GetRegisteredNB(dst int, mem []byte, off int, into []byte) (*Handle, error) {
	if err := e.checkReg(dst, off, len(into), mem, "get"); err != nil {
		return nil, err
	}
	e.connect(dst)
	t0 := e.p.Now()
	e.p.Advance(e.costs().GetNS)
	copy(into, mem[off:])
	pr := e.net.Params()
	done := e.p.Now() + 2*pr.PathLatency(e.p.ID(), dst) + pr.PathWireTime(e.p.ID(), dst, len(into))
	e.noteGet(dst, len(into), t0)
	return &Handle{localT: done, remoteT: done}, nil
}

// GetRegistered blocks until the data is valid.
func (e *Ep) GetRegistered(dst int, mem []byte, off int, into []byte) error {
	h, err := e.GetRegisteredNB(dst, mem, off, into)
	if err != nil {
		return err
	}
	e.p.AdvanceTo(h.localT)
	return nil
}

// GetRegisteredNBI is the implicit-handle form.
func (e *Ep) GetRegisteredNBI(dst int, mem []byte, off int, into []byte) error {
	h, err := e.GetRegisteredNB(dst, mem, off, into)
	if err != nil {
		return err
	}
	e.noteNBI(h, dst)
	return nil
}
