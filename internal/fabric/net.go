package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cafmpi/internal/faults"
	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

// Message is the unit of transfer between endpoints. The communication
// layers define the meaning of Class, Tag, Ctx and Args; the fabric only
// moves the message and stamps virtual times on it. Build messages with
// NewMessage (pooled) where the consumer is known to Release them; a
// zero-value Message works too and simply isn't recycled.
type Message struct {
	Src, Dst int
	Class    uint8
	Tag      int
	Ctx      int
	Args     []uint64
	Data     []byte

	// SendT is the sender's clock at injection; ArriveT the eager arrival
	// time. Rendezvous messages compute their true arrival at match time
	// (it depends on when the receiver posts).
	SendT, ArriveT int64
	Rendezvous     bool

	// Req, when non-nil, is the origin-side handle that learns its
	// completion time once the receiver matches a rendezvous message.
	Req Completer

	// DupKey, when nonzero, marks a message the fault injector duplicated:
	// both copies carry the same key, and the receiving endpoint's take
	// path sweeps out the sibling so at most one copy is ever absorbed
	// (sequence-number dedup).
	DupKey uint64

	aseq     uint64 // per-endpoint arrival stamp, assigned when the message becomes visible
	pooled   bool   // from msgPool; Release recycles the struct
	queued   bool   // linked into an endpoint's class list
	dataBuf  *pbuf  // pooled payload backing, nil when unpooled
	owner    *Net   // accounts pooled payload bytes; set at Send
	argStore [inlineArgs]uint64

	// Class-list links (endpoint.go): owned by the destination endpoint,
	// under its mutex, while queued is set; nil otherwise.
	qprev, qnext *Message
}

// Completer is implemented by origin-side request objects that need the
// receiver to report a virtual completion time back (rendezvous sends).
type Completer interface{ CompleteAt(t int64) }

// Net is the per-world interconnect instance. All layers of all images share
// one Net so that costs and presets are consistent.
type Net struct {
	world  *sim.World
	params *Params

	// nics[i] models image i's inbound NIC: payloads addressed to an image
	// — puts, long AM deposits, message bodies — reserve wire time on it,
	// so unscheduled many-to-one traffic (incast) queues while pairwise-
	// scheduled exchanges stay clean.
	nics []nic

	// ow is the world's observability registry, nil when off. Captured at
	// attach time (obs.Enable runs before any layer attaches) so per-message
	// paths pay a nil check, not a registry lookup.
	ow *obs.World

	// flt is the world's fault-injection state, nil when faults.Enable was
	// never called (plain fabric tests). Captured at attach time like ow;
	// with no plan the per-send cost is a single nil/flag check.
	flt *faults.State

	// poolBytes is the pooled payload capacity currently checked out for
	// in-flight messages of this world; Send raises the pool_bytes_inflight
	// gauge from it and Release drains it.
	poolBytes atomic.Int64

	mu     sync.Mutex
	layers map[string]*Layer // guarded by mu
}

// nic tracks the busy intervals of one image's inbound link. Reservations
// backfill gaps: images execute at different real-time speeds, so claims
// arrive out of virtual-time order, and a monotone "free-after" counter
// would falsely serialize unrelated transfers. Adjacent reservations
// coalesce, so sustained incast collapses to one growing interval.
type nic struct {
	mu   sync.Mutex
	busy []ivl // sorted by start; bounded, oldest evicted; guarded by mu
}

type ivl struct{ start, end int64 }

const maxNICIntervals = 64

func (n *nic) claim(earliest, occ int64) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := earliest
	pos := 0
	for i, iv := range n.busy {
		if iv.end <= t {
			pos = i + 1
			continue
		}
		if iv.start >= t+occ {
			break // a gap large enough before this interval
		}
		t = iv.end
		pos = i + 1
	}
	// Insert [t, t+occ) at pos, coalescing with neighbors.
	nv := ivl{t, t + occ}
	if pos > 0 && n.busy[pos-1].end == nv.start {
		n.busy[pos-1].end = nv.end
		nv = n.busy[pos-1]
		pos--
	} else {
		n.busy = append(n.busy, ivl{})
		copy(n.busy[pos+1:], n.busy[pos:])
		n.busy[pos] = nv
	}
	if pos+1 < len(n.busy) && n.busy[pos+1].start == nv.end {
		n.busy[pos].end = n.busy[pos+1].end
		n.busy = append(n.busy[:pos+1], n.busy[pos+2:]...)
	}
	if len(n.busy) > maxNICIntervals {
		n.busy = n.busy[1:] // forget the oldest history
	}
	return t + occ
}

// AttachNet returns the world's Net, creating it with the given parameters
// on first call. Later calls ignore params (every image must agree).
func AttachNet(w *sim.World, params *Params) *Net {
	// Resolved outside the Shared callback: Peek and Shared share a
	// non-reentrant mutex.
	ow := obs.Enabled(w)
	flt := faults.Enabled(w)
	return w.Shared("fabric.net", func() any {
		n := &Net{
			world:  w,
			params: params,
			nics:   make([]nic, w.N()),
			layers: make(map[string]*Layer),
			ow:     ow,
			flt:    flt,
		}
		// When the failure latch trips (image crash or job cancellation),
		// broadcast-wake every parked endpoint waiter so blocked collectives,
		// event waits and finishes observe the error instead of deadlocking.
		flt.OnWake(n.WakeAll)
		return n
	}).(*Net)
}

// WakeAll wakes every parked waiter on every endpoint of every layer.
func (n *Net) WakeAll() {
	n.mu.Lock()
	layers := make([]*Layer, 0, len(n.layers))
	for _, l := range n.layers {
		layers = append(layers, l)
	}
	n.mu.Unlock()
	for _, l := range layers {
		for _, ep := range l.eps {
			ep.WakeAll()
		}
	}
}

// Params returns the platform parameter set in force.
func (n *Net) Params() *Params { return n.params }

// Layer returns the named layer, creating endpoints for every image on
// first use. Each communication library (mpi, gasnet, ...) owns one layer so
// their traffic never mixes.
func (n *Net) Layer(name string) *Layer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.layers[name]; ok {
		return l
	}
	np := n.world.N()
	l := &Layer{net: n, name: name, eps: make([]*Endpoint, np)}
	for i := range l.eps {
		l.eps[i] = newEndpoint(l, i)
	}
	n.layers[name] = l
	return l
}

// shard returns image p's observability shard, or nil when off.
func (n *Net) shard(p *sim.Proc) *obs.Shard {
	if n.ow == nil {
		return nil
	}
	return n.ow.Shard(p.ID())
}

// ClaimNIC reserves occ nanoseconds of image dst's inbound wire starting no
// earlier than earliest, and returns the completion time. Overlapping
// reservations from concurrent senders queue, modeling receive-side
// congestion; reservations in already-free gaps backfill.
func (n *Net) ClaimNIC(dst int, earliest, occ int64) int64 {
	if occ <= 0 {
		// Zero-byte control messages don't occupy the wire.
		return earliest
	}
	return n.nics[dst].claim(earliest, occ)
}

// Layer is one library's view of the interconnect: an endpoint per image.
type Layer struct {
	net  *Net
	name string
	eps  []*Endpoint
}

// Endpoint returns image rank's endpoint in this layer.
func (l *Layer) Endpoint(rank int) *Endpoint { return l.eps[rank] }

// Delivery is one unit of fabric injection: the message plus, when the
// fault injector duplicated it, the sibling copy that must become visible
// in the same atomic step. At-most-once dedup (Endpoint.sweepDupLocked)
// relies on both copies entering the match queues under one lock hold: with
// separate injections the receiver can match and absorb Msg in the window
// between them, the dedup sweep then finds no sibling, and Dup is later
// delivered as a real second copy.
type Delivery struct {
	Msg *Message
	Dup *Message // nil unless the fault injector duplicated Msg
}

// Inject makes each delivery visible at its destination endpoint. It is the
// single injection seam of the fabric — Send, and through it the fault
// injector's duplicate path, target nothing else. The contract:
//
//   - Ownership of Msg (and Dup) transfers to the fabric at the call; the
//     receiver may match, absorb and recycle them concurrently, so the
//     caller must not touch either message afterwards.
//   - Per-(src,dst) delivery order is program order (non-overtaking): each
//     delivery is enqueued under the destination endpoint's mutex before
//     Inject returns, so a sender's later deliveries queue behind it.
//   - Msg and its injector-made duplicate become visible atomically, under
//     one hold of that mutex, preserving the at-most-once dedup sweep; see
//     Delivery.
//   - Arrival stamps are issued by enqueueLocked under the same mutex that
//     owns the queue, so stamp order is queue order.
//   - Fault policy (drop/retry/backoff/blackhole verdicts) runs in Send
//     before injection; Inject itself never fails and blocks only on the
//     destination's mutex.
func (l *Layer) Inject(batch ...Delivery) {
	for _, d := range batch {
		if d.Msg.Src < 0 || d.Msg.Src >= len(l.eps) {
			panic(fmt.Sprintf("fabric: inject from invalid rank %d (world size %d)", d.Msg.Src, len(l.eps)))
		}
		dst := l.eps[d.Msg.Dst]
		dst.mu.Lock()
		wake := dst.enqueueLocked(d.Msg)
		if d.Dup != nil && dst.enqueueLocked(d.Dup) {
			wake = true
		}
		dst.mu.Unlock()
		if wake {
			dst.cond.Broadcast()
		}
	}
}

// Send injects m from image p. It charges the sender's clock, stamps the
// message, decides eager vs. rendezvous from the payload size, and enqueues
// it at the destination endpoint. The payload and args slices are copied
// (into pooled storage) so the sender may reuse both buffers immediately
// (matching eager-protocol semantics; for rendezvous the request's
// CompleteAt callback reports the virtual time at which the sender buffer
// would really be free). Ownership of m itself transfers to the fabric.
//
// With a fault plan active, Send is also where the resilient-delivery
// protocol runs: dropped attempts cost the sender ack-timeout + exponential
// backoff virtual time before the successful retransmission (the retry
// traffic is folded into the cost model, so no extra message objects exist
// and decisions stay bit-reproducible), bounded retries fail with a typed
// ErrRetriesExhausted, sends to a crashed image fail with ErrImageFailed,
// and the sending image itself can hit a crash or stall point here.
// Callers that can surface errors should check the result; fire-and-forget
// callers may ignore it (delivery is then best-effort under faults, exactly
// like the underlying network).
func (l *Layer) Send(p *sim.Proc, m *Message) error {
	pr := l.net.params
	if m.Dst < 0 || m.Dst >= len(l.eps) {
		panic(fmt.Sprintf("fabric: send to invalid rank %d (world size %d)", m.Dst, len(l.eps)))
	}
	m.Src = p.ID()
	flt := l.net.flt
	if flt.Active() {
		if stall, crashed := flt.Checkpoint(m.Src, p.Now()); crashed {
			// Last event before death: the flight recorder's postmortem shows
			// exactly where the image hit its crash point.
			if sh := l.net.shard(p); sh != nil {
				sh.Record(obs.LayerFabric, obs.OpCrash, -1, 0, 0, p.Now(), p.Now())
			}
			m.Release()
			panic(faults.Crashed{Image: p.ID()})
		} else if stall > 0 {
			p.Advance(stall)
		}
		if flt.ImageDown(m.Dst) {
			// ULFM-style failure notification: talking to a dead image is an
			// immediate typed error, not a hang. Complete the request so any
			// origin-side waiter unblocks.
			flt.Record(m.Src, faults.Event{T: p.Now(), Kind: faults.KindBlackhole,
				Layer: l.name, Class: m.Class, Src: m.Src, Dst: m.Dst})
			if m.Req != nil {
				m.Req.CompleteAt(p.Now())
			}
			dst := m.Dst
			m.Release()
			return &faults.ImageError{Image: dst, Op: "send(" + l.name + ")", Err: faults.ErrImageFailed}
		}
	}
	if len(m.Args) > 0 {
		if len(m.Args) <= inlineArgs {
			n := copy(m.argStore[:], m.Args)
			m.Args = m.argStore[:n:n]
		} else {
			m.Args = append([]uint64(nil), m.Args...)
		}
	}
	var poolOut int64
	if len(m.Data) > 0 {
		data, pb := getBuf(len(m.Data))
		copy(data, m.Data)
		m.Data, m.dataBuf = data, pb
		if pb != nil {
			m.owner = l.net
			poolOut = l.net.poolBytes.Add(int64(cap(pb.b)))
		}
	} else {
		m.Data = nil
	}
	t0 := p.Now()
	p.Advance(pr.SendOverheadNS)
	var v faults.Verdict
	if flt.Active() {
		v = flt.OnSend(l.name, m.Class, m.Src, m.Dst, p.Now())
		if v.Exhausted {
			// Every attempt up to MaxRetries was dropped: charge the full
			// timeout/backoff schedule the protocol waited through, complete
			// the origin-side request (the buffer is free; the op failed),
			// and surface the typed error.
			p.Advance(v.RetryWaitNS)
			if sh := l.net.shard(p); sh != nil {
				sh.Record(obs.LayerFabric, obs.OpFault, m.Dst, 0, m.Tag, t0, p.Now())
				sh.Add(obs.CtrFaultsInjected, int64(v.Injected))
				sh.Add(obs.CtrFaultRetries, int64(v.Retries))
				sh.Add(obs.CtrFaultRetryNS, v.RetryWaitNS)
			}
			if m.Req != nil {
				m.Req.CompleteAt(p.Now())
			}
			dst := m.Dst
			m.Release()
			return &faults.ImageError{Image: dst, Op: "send(" + l.name + ")", Err: faults.ErrRetriesExhausted}
		}
		// Dropped attempts delay the successful retransmission: the sender
		// sat out ack timeouts (exponential backoff) before it went through.
		p.Advance(v.RetryWaitNS)
	}
	m.SendT = p.Now()
	size := len(m.Data) + 8*len(m.Args)
	lat := pr.PathLatency(m.Src, m.Dst)
	if size > pr.EagerThreshold {
		m.Rendezvous = true
		// True arrival computed at match time; ArriveT here is the
		// ready-to-send notification's arrival (shifted by any injected
		// delay/reorder jitter).
		m.ArriveT = m.SendT + lat + v.DelayNS
	} else {
		m.ArriveT = l.net.ClaimNIC(m.Dst, m.SendT+lat+v.DelayNS, pr.PathWireTime(m.Src, m.Dst, size))
		if m.Req != nil {
			m.Req.CompleteAt(m.SendT) // eager: buffer copied out at injection
		}
	}
	var dup *Message
	if v.Dup {
		m.DupKey = v.Seq + 1
		dup = l.cloneForDup(m, v.DupDelayNS)
	}
	dst, tag, rdv := m.Dst, m.Tag, m.Rendezvous
	injected, retries, retryNS := v.Injected, v.Retries, v.RetryWaitNS
	l.Inject(Delivery{Msg: m, Dup: dup})
	// m may already be consumed and recycled by the receiver here; only the
	// locals captured above are safe to touch.
	if sh := l.net.shard(p); sh != nil {
		end := p.Now()
		sh.Record(obs.LayerFabric, obs.OpInject, dst, size, tag, t0, end)
		sh.Add(obs.CtrMsgsSent, 1)
		sh.Add(obs.CtrBytesSent, int64(size))
		if rdv {
			sh.Add(obs.CtrRendezvousMsgs, 1)
		} else {
			sh.Add(obs.CtrEagerMsgs, 1)
		}
		sh.Max(obs.CtrPoolBytesInFlightMax, poolOut)
		sh.CommAdd(dst, int64(size))
		if injected > 0 {
			sh.Record(obs.LayerFabric, obs.OpFault, dst, size, tag, t0, end)
			sh.Add(obs.CtrFaultsInjected, int64(injected))
			if retries > 0 {
				sh.Add(obs.CtrFaultRetries, int64(retries))
				sh.Add(obs.CtrFaultRetryNS, retryNS)
			}
		}
		e := obs.Edge{Layer: obs.LayerFabric, Op: obs.OpInject,
			Peer: int32(dst), Start: t0, End: end}
		e.AddComp(obs.CompOverhead, pr.SendOverheadNS)
		sh.RecordEdge(e)
	}
	return nil
}

// cloneForDup builds the injector's duplicate of m: same match identity and
// stamps, its own pooled payload, arriving delay after the original. The
// shared DupKey lets the receiver's dedup sweep suppress whichever copy
// loses the match.
func (l *Layer) cloneForDup(m *Message, delay int64) *Message {
	d := NewMessage()
	d.Src, d.Dst, d.Class, d.Tag, d.Ctx = m.Src, m.Dst, m.Class, m.Tag, m.Ctx
	if len(m.Args) > 0 {
		if len(m.Args) <= inlineArgs {
			n := copy(d.argStore[:], m.Args)
			d.Args = d.argStore[:n:n]
		} else {
			d.Args = append([]uint64(nil), m.Args...)
		}
	}
	if len(m.Data) > 0 {
		data, pb := getBuf(len(m.Data))
		copy(data, m.Data)
		d.Data, d.dataBuf = data, pb
		if pb != nil {
			d.owner = l.net
			l.net.poolBytes.Add(int64(cap(pb.b)))
		}
	}
	d.SendT = m.SendT
	d.ArriveT = m.ArriveT + delay
	d.Rendezvous = m.Rendezvous
	d.Req = m.Req // CompleteAt is max-merge; at most one copy is absorbed anyway
	d.DupKey = m.DupKey
	return d
}

// Absorb advances the receiving image's clock for a matched message: eager
// messages land at their arrival stamp; rendezvous messages complete a
// round-trip that starts when both sides are ready. extra is the layer's
// per-message receive cost (tag matching, handler dispatch, ...).
func (l *Layer) Absorb(p *sim.Proc, m *Message, extra int64) {
	l.absorb(p, m, extra, 0)
}

// AbsorbAM is Absorb with the delivery cost split into the matching/handler
// dispatch charge and an SRQ stall, so the happens-before edge attributes
// them to distinct blame components (CompMatch vs CompSRQStall).
func (l *Layer) AbsorbAM(p *sim.Proc, m *Message, matchNS, stallNS int64) {
	l.absorb(p, m, matchNS, stallNS)
}

func (l *Layer) absorb(p *sim.Proc, m *Message, matchNS, stallNS int64) {
	pr := l.net.params
	if flt := l.net.flt; flt.Active() {
		if stall, crashed := flt.Checkpoint(p.ID(), p.Now()); crashed {
			if sh := l.net.shard(p); sh != nil {
				sh.Record(obs.LayerFabric, obs.OpCrash, -1, 0, 0, p.Now(), p.Now())
			}
			m.Release() // match the Send-path crash: don't leak the pooled message
			panic(faults.Crashed{Image: p.ID()})
		} else if stall > 0 {
			p.Advance(stall)
		}
	}
	t0 := p.Now()
	// Captured before the clock moves: whether the receiver was already
	// blocked when the message (or its rendezvous RTS) arrived. If so, the
	// delivery is on the receiver's critical path all the way back to the
	// sender's injection, and the recorded edge jumps there.
	sendT, arriveT := m.SendT, m.ArriveT
	// Equality counts as blocked: an idle receiver's poll advances its clock
	// exactly to the arrival stamp before absorbing.
	blocked := t0 <= arriveT
	var rdvStart, rdvDone int64
	if m.Rendezvous {
		start := max64(p.Now(), m.ArriveT)
		size := len(m.Data) + 8*len(m.Args)
		lat := pr.PathLatency(m.Src, m.Dst)
		done := l.net.ClaimNIC(m.Dst, start+2*lat, pr.PathWireTime(m.Src, m.Dst, size))
		if m.Req != nil {
			m.Req.CompleteAt(start + lat) // sender free after CTS
		}
		p.AdvanceTo(done)
		rdvStart, rdvDone = start, done
	} else {
		p.AdvanceTo(m.ArriveT)
	}
	p.Advance(pr.RecvOverheadNS + matchNS + stallNS)
	if sh := l.net.shard(p); sh != nil {
		size := len(m.Data) + 8*len(m.Args)
		op := obs.OpDeliver
		if m.Rendezvous {
			op = obs.OpRendezvousMatch
		}
		end := p.Now()
		sh.Record(obs.LayerFabric, op, m.Src, size, m.Tag, t0, end)
		sh.Add(obs.CtrMsgsRecv, 1)
		sh.Add(obs.CtrBytesRecv, int64(size))

		lat := pr.PathLatency(m.Src, m.Dst)
		wire := pr.PathWireTime(m.Src, m.Dst, size)
		e := obs.Edge{Layer: obs.LayerFabric, Op: op,
			Peer: int32(m.Src), Start: t0, End: end, SrcT: sendT}
		if m.Rendezvous {
			if blocked {
				// RTS leg was awaited: one latency from injection to RTS
				// arrival, then the walker continues at the sender.
				e.Jump = true
				e.AddComp(obs.CompLatency, arriveT-sendT)
			}
			// CTS + DATA legs: two latencies, the payload's wire time, and
			// any NIC queueing the claim absorbed.
			xfer := rdvDone - rdvStart
			e.AddComp(obs.CompLatency, 2*lat)
			e.AddComp(obs.CompBandwidth, wire)
			e.AddComp(obs.CompGap, xfer-2*lat-wire)
		} else if blocked {
			e.Jump = true
			flight := arriveT - sendT // L, then wire occupancy, then queueing
			l2 := min64(lat, flight)
			rest := flight - l2
			w2 := min64(wire, rest)
			e.AddComp(obs.CompLatency, l2)
			e.AddComp(obs.CompBandwidth, w2)
			e.AddComp(obs.CompGap, rest-w2)
		}
		e.AddComp(obs.CompOverhead, pr.RecvOverheadNS)
		e.AddComp(obs.CompMatch, matchNS)
		e.AddComp(obs.CompSRQStall, stallNS)
		sh.RecordEdge(e)
	}
}

// RMAPut charges image p for injecting a one-sided write of size bytes with
// per-op overhead opNS, claims the target NIC for the payload, and returns
// the remote completion time.
func (l *Layer) RMAPut(p *sim.Proc, dst, size int, opNS int64) (remoteDone int64) {
	pr := l.net.params
	t0 := p.Now()
	p.Advance(opNS)
	done := l.net.ClaimNIC(dst, p.Now()+pr.PathLatency(p.ID(), dst), pr.PathWireTime(p.ID(), dst, size))
	if sh := l.net.shard(p); sh != nil {
		sh.Record(obs.LayerFabric, obs.OpRMAPut, dst, size, 0, t0, done)
		sh.CommAdd(dst, int64(size))
		// The local edge covers only the issue overhead; latency/wire time
		// surface on the flush that waits for remote completion.
		e := obs.Edge{Layer: obs.LayerFabric, Op: obs.OpRMAPut,
			Peer: int32(dst), Start: t0, End: p.Now()}
		e.AddComp(obs.CompOverhead, opNS)
		sh.RecordEdge(e)
	}
	return done
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
