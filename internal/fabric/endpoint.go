package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"cafmpi/internal/faults"
	"cafmpi/internal/obs"
)

// The receive path. Arriving messages are appended to one intrusive list per
// class, in arrival order. enqueueLocked is the only place that stamps aseq
// and appends, so list order is stamp order: a take walks a class list from
// the head and the first message that passes source, Filter and the time
// gate is the least-stamp eligible one — what a linear scan of a single
// arrival-ordered queue would pick, at a cost of the messages ahead of it,
// never of the world size. Non-overtaking per (src, class, tag) stream
// follows because a stream's messages sit in the list in program order.
//
// Injection and Poke wake the endpoint's parked waiters, if any; with none
// parked the send path skips the broadcast.
//
// Each endpoint owns its queue lock, as each image of the modelled machine
// owns its receive queues: senders to different images never share a lock.

// AnySrc in a MatchSpec matches messages from every source.
const AnySrc = -1

// NoTimeGate as MatchSpec.Before disables arrival-time gating.
const NoTimeGate = int64(math.MaxInt64)

// classLimit bounds message class values; ClassSet is a bitmask over them.
const classLimit = 64

// ClassSet is a bitmask of message classes.
type ClassSet uint64

// AllClasses selects every message class.
const AllClasses = ClassSet(math.MaxUint64)

// Classes builds a ClassSet from individual class values.
func Classes(cs ...uint8) ClassSet {
	var s ClassSet
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// MatchSpec describes which queued messages a receive or probe is willing
// to take. Class and source narrow the queue walk; Before gates on the
// message's arrival stamp (a receiver must not consume a message that is
// still in its virtual future); Filter, when non-nil, adds layer-specific
// selection (tag, context, posted-receive matching) and runs under the
// endpoint lock, so it must not call back into the endpoint.
//
// Callers are expected to keep a MatchSpec alive across calls (typically
// embedded in their own state with Filter bound once) so the per-poll
// closure allocations the old predicate API forced are gone.
type MatchSpec struct {
	Classes ClassSet
	Src     int   // world rank, or AnySrc
	Before  int64 // only messages with ArriveT <= Before are eligible
	Filter  func(*Message) bool
}

// PollState is the poll-loop snapshot an endpoint returns under a single
// lock acquisition: the activity counter, the queue depth, and the earliest
// arrival stamp among spec-matching messages that are not yet eligible
// (Earliest/HasEarliest ignore Before — they exist so a blocked receiver
// can advance its clock to the next candidate's arrival).
type PollState struct {
	Seq         uint64
	Depth       int
	Earliest    int64
	HasEarliest bool
}

// Endpoint is one image's receive queue within a layer.
type Endpoint struct {
	layer *Layer
	rank  int

	// seq counts arrivals and pokes. It is written under mu and read with a
	// plain atomic load, so poll loops sample activity without contending
	// for the queue lock.
	seq atomic.Uint64

	mu      sync.Mutex
	cond    sync.Cond              // on mu; woken only for this endpoint's events
	classes [classLimit]classQueue // guarded by mu
	present ClassSet               // classes with at least one queued message; guarded by mu
	nextSeq uint64                 // next arrival stamp; guarded by mu
	depth   int                    // total queued messages; guarded by mu
	waiters int                    // goroutines parked in cond.Wait; guarded by mu
}

func newEndpoint(l *Layer, rank int) *Endpoint {
	e := &Endpoint{layer: l, rank: rank}
	e.cond.L = &e.mu
	return e
}

// classQueue is one class's arrival-ordered queue: an intrusive doubly
// linked list through Message.qprev/qnext, so an endpoint's memory does not
// depend on the world size and removal from the middle is O(1).
type classQueue struct {
	head, tail *Message
}

func (e *Endpoint) enqueueLocked(m *Message) (wake bool) {
	if m.Src < 0 || m.Class >= classLimit {
		panic(fmt.Sprintf("fabric: enqueue src %d class %d out of range", m.Src, m.Class))
	}
	if m.queued {
		panic("fabric: enqueue of a message that is already queued")
	}
	m.aseq = e.nextSeq
	e.nextSeq++
	cq := &e.classes[m.Class]
	m.qprev, m.qnext, m.queued = cq.tail, nil, true
	if cq.tail != nil {
		cq.tail.qnext = m
	} else {
		cq.head = m
	}
	cq.tail = m
	e.depth++
	e.present |= 1 << m.Class
	e.seq.Add(1)
	return e.waiters > 0
}

// unlinkLocked removes queued message m from its class list.
func (e *Endpoint) unlinkLocked(m *Message) {
	cq := &e.classes[m.Class]
	if m.qprev != nil {
		m.qprev.qnext = m.qnext
	} else {
		cq.head = m.qnext
	}
	if m.qnext != nil {
		m.qnext.qprev = m.qprev
	} else {
		cq.tail = m.qprev
	}
	m.qprev, m.qnext, m.queued = nil, nil, false
	if cq.head == nil {
		e.present &^= 1 << m.Class
	}
	e.depth--
}

// findLocked returns, still queued, the least-arrival-stamp message eligible
// under spec (class, src, Filter, and ArriveT <= Before). When no message is
// eligible it instead reports the earliest arrival among messages that match
// everything but the time gate, so the caller knows where virtual time must
// advance to. Across several selected classes the least stamp wins: a later
// class's walk bails once its stamps pass the candidate's.
func (e *Endpoint) findLocked(spec *MatchSpec) (best *Message, earliest int64, hasEarl bool) {
	for set := spec.Classes & e.present; set != 0; set &= set - 1 {
		for m := e.classes[trailingZeros(set)].head; m != nil; m = m.qnext {
			if best != nil && m.aseq > best.aseq {
				break
			}
			if spec.Src != AnySrc && m.Src != spec.Src {
				continue
			}
			if spec.Filter != nil && !spec.Filter(m) {
				continue
			}
			if m.ArriveT <= spec.Before {
				best = m
				break
			}
			if !hasEarl || m.ArriveT < earliest {
				earliest, hasEarl = m.ArriveT, true
			}
		}
	}
	if best != nil {
		return best, 0, false
	}
	return nil, earliest, hasEarl
}

// takeLocked is findLocked plus removal, including the at-most-once sweep of
// an injector-made duplicate. Peeks call findLocked alone.
func (e *Endpoint) takeLocked(spec *MatchSpec) (*Message, int64, bool) {
	m, earliest, hasEarl := e.findLocked(spec)
	if m != nil {
		e.unlinkLocked(m)
		e.sweepDupLocked(m)
	}
	return m, earliest, hasEarl
}

func trailingZeros(s ClassSet) uint8 {
	return uint8(bits.TrailingZeros64(uint64(s)))
}

// sweepDupLocked enforces at-most-once absorb for injector-duplicated
// messages: m was just taken for real (not a peek), so its sibling copy —
// same class, same source, same DupKey — is removed and recycled here,
// before the lock drops and the sibling could match anything.
func (e *Endpoint) sweepDupLocked(m *Message) {
	if m.DupKey == 0 {
		return
	}
	for s := e.classes[m.Class].head; s != nil; s = s.qnext {
		if s.Src != m.Src || s.DupKey != m.DupKey {
			continue
		}
		e.unlinkLocked(s)
		if flt := e.layer.net.flt; flt != nil {
			flt.Record(e.rank, faults.Event{T: s.ArriveT, Kind: faults.KindDedup,
				Layer: e.layer.name, Class: s.Class, Src: s.Src, Dst: e.rank, Seq: m.DupKey - 1})
		}
		if ow := e.layer.net.ow; ow != nil {
			ow.Shard(e.rank).Add(obs.CtrFaultDedupDrops, 1)
		}
		s.Req = nil // the surviving copy owns the origin-side completion
		s.Release()
		return // exactly one sibling can exist
	}
}

// TryRecvSpec removes and returns the least-arrival-stamp message eligible
// under spec, under a single lock acquisition. The returned PollState always
// carries Seq and the pre-dequeue Depth; when no message was eligible it
// also carries the earliest arrival among messages matching everything but
// the Before gate.
func (e *Endpoint) TryRecvSpec(spec *MatchSpec) (*Message, PollState) {
	e.mu.Lock()
	st := PollState{Seq: e.seq.Load(), Depth: e.depth}
	var m *Message
	m, st.Earliest, st.HasEarliest = e.takeLocked(spec)
	e.mu.Unlock()
	return m, st
}

// PeekSpec returns (without removing) the message TryRecvSpec would take.
func (e *Endpoint) PeekSpec(spec *MatchSpec) *Message {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, _, _ := e.findLocked(spec)
	return m
}

// TryRecvPeek is TryRecvSpec fused with a probe: when the take under recv
// comes back empty, the same lock acquisition peeks under peek (the peeked
// message stays queued) and, when that also fails, reports the earliest
// arrival among peek's filter-matching messages. On a failed peek every
// filter-passing message fails the time gate, so the gate-failing earliest
// equals the ungated earliest PollStateFor would report.
func (e *Endpoint) TryRecvPeek(recv, peek *MatchSpec) (m *Message, st PollState, pm *Message, pearl int64, phas bool) {
	e.mu.Lock()
	st = PollState{Seq: e.seq.Load(), Depth: e.depth}
	m, st.Earliest, st.HasEarliest = e.takeLocked(recv)
	if m == nil {
		pm, pearl, phas = e.findLocked(peek)
	}
	e.mu.Unlock()
	return
}

// PollStateFor returns the poll snapshot for spec — activity counter, queue
// depth, and earliest arrival among filter-matching messages — without
// dequeuing anything and under one lock acquisition.
func (e *Endpoint) PollStateFor(spec *MatchSpec) PollState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := PollState{Seq: e.seq.Load(), Depth: e.depth}
	// With a gate no arrival passes, the find fails and its report covers
	// every filter-matching message.
	ungated := *spec
	ungated.Before = math.MinInt64
	_, st.Earliest, st.HasEarliest = e.findLocked(&ungated)
	return st
}

// Recv blocks until a message matching match is queued, removes and returns
// it. Messages are taken in arrival order, which preserves the
// non-overtaking guarantee for any (src, class, tag) stream.
func (e *Endpoint) Recv(match func(*Message) bool) *Message {
	spec := MatchSpec{Classes: AllClasses, Src: AnySrc, Before: NoTimeGate, Filter: match}
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if m, _, _ := e.takeLocked(&spec); m != nil {
			return m
		}
		e.waitLocked()
	}
}

// Seq returns a counter that increases with every enqueued message and every
// poke; pollers use it to detect new activity without taking the queue lock.
func (e *Endpoint) Seq() uint64 {
	return e.seq.Load()
}

// waitLocked parks until the cond is signaled. Callers must hold e.mu and
// re-check their predicate on return. Every event a waiter can be woken for
// happens under e.mu, and sync.Cond.Wait registers its ticket before
// releasing the lock, so a wakeup cannot fall between the caller's check
// and the park.
func (e *Endpoint) waitLocked() {
	e.waiters++
	e.cond.Wait()
	e.waiters--
}

// WaitActivity blocks until the endpoint's activity counter passes since.
// It returns the new counter value. The waiter is woken for every arrival,
// poke and WakeAll. Callers must sample Seq before checking the condition
// they sleep on.
func (e *Endpoint) WaitActivity(since uint64) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.seq.Load() <= since {
		e.waitLocked()
	}
	return e.seq.Load()
}

// WakeAll bumps the activity counter and wakes every parked waiter. The
// fault state's failure latch uses it so blocked receivers re-check their
// loop condition — and observe the error — after an image crash or a job
// cancellation.
func (e *Endpoint) WakeAll() {
	e.mu.Lock()
	e.seq.Add(1)
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Poke wakes parked waiters and bumps the activity counter without
// enqueuing a message. Request-completion callbacks use it so a single wait
// loop can cover both message arrival and remote completion events.
func (e *Endpoint) Poke() {
	e.mu.Lock()
	e.seq.Add(1)
	wake := e.waiters > 0
	e.mu.Unlock()
	if wake {
		e.cond.Broadcast()
	}
}

// QueueLen returns the current queue depth (used by tests and the SRQ
// contention diagnostics).
func (e *Endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.depth
}
