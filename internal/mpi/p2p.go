package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
)

// Status describes a completed receive.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
	Count  int // bytes received
}

// Request is a handle to an in-flight operation (MPI_Request).
type Request struct {
	env  *Env
	comm *Comm

	// Receive matching state (receives only).
	buf      []byte
	src, tag int
	ctx      int

	// done is the completion flag, published with release ordering after
	// completeT/status/err are in place so that snapshot can read them
	// without taking mu. mu only serializes concurrent completers
	// (duplicate CompleteAt calls racing on the completion-time max).
	done      atomic.Bool
	mu        sync.Mutex
	completeT int64
	status    Status
	err       error
}

// reqPool recycles Request structs: the blocking Send/Recv wrappers and the
// substrate's fence-drained request arrays churn through one handle per
// message, which used to be the library's largest allocation source.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// newRequest draws a zeroed request from the pool.
func newRequest(env *Env, c *Comm) *Request {
	r := reqPool.Get().(*Request)
	r.env, r.comm = env, c
	return r
}

// Free returns a completed request to the internal pool, in the spirit of
// MPI_REQUEST_FREE. Only a caller that exclusively owns the handle may free
// it, and only after a successful Wait (or for requests created complete);
// the handle must not be touched afterwards.
func (r *Request) Free() {
	// No lock: the owner has already observed done through snapshot's
	// critical section (or the request was born complete), which orders
	// Free after the completer's last touch; from then on this goroutine
	// is the only accessor until the pool hands the handle out again.
	r.env, r.comm, r.buf = nil, nil, nil
	r.src, r.tag, r.ctx = 0, 0, 0
	r.done.Store(false)
	r.completeT = 0
	r.status, r.err = Status{}, nil
	reqPool.Put(r)
}

// CompleteAt marks the operation complete at virtual time t. It is invoked
// by the fabric (eager injection) or by the matching receiver (rendezvous),
// possibly from another goroutine.
func (r *Request) CompleteAt(t int64) {
	r.mu.Lock()
	if t > r.completeT {
		r.completeT = t
	}
	// The waiter may observe done and Free the request the moment the
	// store lands, so capture env first.
	env := r.env
	r.done.Store(true)
	r.mu.Unlock()
	if env != nil {
		env.ep.Poke()
	}
}

func (r *Request) snapshot() (done bool, t int64, st Status, err error) {
	if !r.done.Load() {
		return false, 0, Status{}, nil
	}
	return true, r.completeT, r.status, r.err
}

// Test returns the request's completion state without blocking, making
// progress first. On completion the caller's clock absorbs the completion
// timestamp.
func (r *Request) Test() (bool, Status, error) {
	r.env.progress()
	done, t, st, err := r.snapshot()
	if done {
		r.env.p.AdvanceTo(t)
	}
	return done, st, err
}

// Wait blocks until the request completes, driving progress for all other
// traffic meanwhile (an MPI implementation must progress everything inside
// any blocking call).
func (r *Request) Wait() (Status, error) {
	e := r.env
	for {
		seq := e.ep.Seq()
		_, ps := e.progressPoll()
		if done, t, st, err := r.snapshot(); done {
			e.p.AdvanceTo(t)
			return st, err
		}
		if err := e.flt.ErrOp("wait"); err != nil {
			return Status{}, err
		}
		if ps.HasEarliest {
			e.p.AdvanceTo(ps.Earliest)
			continue
		}
		e.ep.WaitActivity(seq)
	}
}

// Waitall waits for every request in order and returns the first error.
func Waitall(reqs []*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Isend starts a non-blocking tagged send of buf to dest.
func (c *Comm) Isend(buf []byte, dest, tag int) (*Request, error) {
	c.env.checkLive()
	if dest == ProcNull {
		r := newRequest(c.env, c)
		r.done.Store(true)
		return r, nil
	}
	if err := c.checkRank(dest, "send"); err != nil {
		return nil, err
	}
	if tag < 0 || tag > TagUB {
		return nil, fmt.Errorf("mpi: tag %d out of range [0,%d]", tag, TagUB)
	}
	return c.isendCtx(buf, dest, tag, c.ctx), nil
}

func (c *Comm) isendCtx(buf []byte, dest, tag, ctx int) *Request {
	r := newRequest(c.env, c)
	c.env.connect(c.ranks[dest])
	t0 := c.env.p.Now()
	m := fabric.NewMessage()
	m.Dst = c.ranks[dest]
	m.Class = clsP2P
	m.Tag = tag
	m.Ctx = ctx
	m.Data = buf
	m.Req = r
	if err := c.env.layer.Send(c.env.p, m); err != nil {
		// The fabric already stamped the request complete; surface the
		// typed failure through it so Wait reports it. r has not escaped
		// yet, so the unsynchronized err store is safe.
		r.err = err
		r.done.Store(true)
		return r
	}
	if sh := c.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpSend, c.ranks[dest], len(buf), tag, t0, c.env.p.Now())
	}
	return r
}

// Send is the blocking tagged send: it returns when buf is reusable.
func (c *Comm) Send(buf []byte, dest, tag int) error {
	r, err := c.Isend(buf, dest, tag)
	if err != nil {
		return err
	}
	_, err = r.Wait()
	r.Free() // never escapes this call
	return err
}

// Irecv posts a non-blocking tagged receive into buf. src may be AnySource
// and tag may be AnyTag.
func (c *Comm) Irecv(buf []byte, src, tag int) (*Request, error) {
	c.env.checkLive()
	if src == ProcNull {
		return nil, fmt.Errorf("mpi: receive from MPI_PROC_NULL")
	}
	if src != AnySource {
		if err := c.checkRank(src, "recv source"); err != nil {
			return nil, err
		}
	}
	return c.irecvCtx(buf, src, tag, c.ctx), nil
}

func (c *Comm) irecvCtx(buf []byte, src, tag, ctx int) *Request {
	r := newRequest(c.env, c)
	r.buf, r.src, r.tag, r.ctx = buf, src, tag, ctx
	e := c.env
	e.mu.Lock()
	e.posted = append(e.posted, r)
	e.mu.Unlock()
	return r
}

// Recv is the blocking tagged receive.
func (c *Comm) Recv(buf []byte, src, tag int) (Status, error) {
	r, err := c.Irecv(buf, src, tag)
	if err != nil {
		return Status{}, err
	}
	st, err := r.Wait()
	r.Free() // never escapes this call
	return st, err
}

// IprobeAny is MPI_IPROBE(MPI_ANY_SOURCE, MPI_ANY_TAG) with the probe peek
// fused into the progress engine's final (empty) matching pass, so the idle
// path costs one endpoint lock acquisition instead of three. A failed probe
// also reports the earliest queued arrival for this communicator, replacing
// a separate EarliestMessage scan in blocking pollers. Virtual-time charges
// are bit-identical to a progress pass followed by a separate probe: the
// peek's time gate leads the clock by the MatchNS charge an empty,
// undelivered pass takes afterwards, which is exactly the clock a separate
// probe would have observed.
func (c *Comm) IprobeAny() (bool, Status, int64, bool, error) {
	e := c.env
	e.checkLive()
	matchNS := e.costs().MatchNS
	delivered := false
	first := true
	for {
		e.mu.Lock()
		now := e.p.Now()
		e.progSpec.Before = now
		c.probeSpec.Before = now
		if !delivered {
			c.probeSpec.Before += matchNS
		}
		m, st, pm, pearl, phas := e.ep.TryRecvPeek(&e.progSpec, &c.probeSpec)
		if first {
			e.sh.Max(obs.CtrUnexpectedDepthMax, int64(st.Depth))
			first = false
		}
		if m == nil {
			e.mu.Unlock()
			if !delivered {
				e.p.Advance(matchNS)
			}
			if pm == nil && e.ep.Seq() != st.Seq {
				// Re-peek once at the unfused probe's lock position: an
				// arrival that landed during the fused pass must be seen
				// now, exactly as a separate probe would see it, or it
				// costs a schedule-dependent extra charged pass. An
				// unchanged activity seq proves nothing arrived since the
				// fused pass, so the lock can be skipped.
				c.probeSpec.Before = e.p.Now()
				pm = e.ep.PeekSpec(&c.probeSpec)
			}
			if pm == nil {
				return false, Status{}, pearl, phas, nil
			}
			return true, Status{Source: c.commRankOfWorld(pm.Src), Tag: pm.Tag, Count: len(pm.Data)}, 0, false, nil
		}
		var hit *Request
		for i, r := range e.posted {
			if matchReq(r, m) {
				hit = r
				e.posted = append(e.posted[:i], e.posted[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		if hit == nil {
			panic("mpi: matched message lost its posted receive")
		}
		e.deliver(hit, m)
		delivered = true
	}
}

// matchReq reports whether message m satisfies posted receive r.
func matchReq(r *Request, m *fabric.Message) bool {
	if m.Class != clsP2P || m.Ctx != r.ctx {
		return false
	}
	if r.tag != AnyTag && m.Tag != r.tag {
		return false
	}
	if r.src == AnySource {
		return r.comm.worldToRank[m.Src] >= 0
	}
	return m.Src == r.comm.ranks[r.src]
}

// postedFilter reports whether any posted receive matches m. It is the
// progress engine's match predicate, bound once into Env.progSpec; it runs
// under the endpoint lock and reads posted, so callers hold e.mu.
func (e *Env) postedFilter(m *fabric.Message) bool {
	for _, r := range e.posted {
		if matchReq(r, m) {
			return true
		}
	}
	return false
}

// progress delivers queued arrivals to posted receives, in arrival order,
// each to the earliest-posted matching request. Only messages whose virtual
// arrival stamp has passed are delivered: matching a message "from the
// future" would advance this image's clock to the sender's and let skew
// compound. It returns whether anything was delivered. progress runs only
// on the owning image's goroutine.
func (e *Env) progress() bool {
	delivered, _ := e.progressPoll()
	return delivered
}

// progressPoll is progress plus the poll snapshot of the final (empty)
// matching pass: blocking waits consume its earliest-arrival report in
// place of a second locked queue scan.
func (e *Env) progressPoll() (bool, fabric.PollState) {
	delivered := false
	first := true
	for {
		e.mu.Lock()
		e.progSpec.Before = e.p.Now()
		m, st := e.ep.TryRecvSpec(&e.progSpec)
		if first {
			// Queue depth before matching = unexpected-message backlog.
			e.sh.Max(obs.CtrUnexpectedDepthMax, int64(st.Depth))
			first = false
		}
		if m == nil {
			e.mu.Unlock()
			if !delivered {
				// An unsuccessful poll still costs a queue scan; this also
				// lets pure test/probe spin loops advance virtual time
				// toward in-flight arrivals.
				e.p.Advance(e.costs().MatchNS)
			}
			return delivered, st
		}
		// The spec's filter guaranteed a posted match while the endpoint
		// lock was held, and posted only changes under e.mu (still held):
		// unpost the winning request before releasing it.
		var hit *Request
		for i, r := range e.posted {
			if matchReq(r, m) {
				hit = r
				e.posted = append(e.posted[:i], e.posted[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		if hit == nil {
			panic("mpi: matched message lost its posted receive")
		}
		e.deliver(hit, m)
		delivered = true
	}
}

// advanceToPending advances the clock to the earliest queued arrival that
// matches a posted receive, returning whether it did. Blocking waits call
// it when progress finds nothing eligible: waiting for a message that is
// already queued but virtually in flight is a virtual-time wait.
func (e *Env) advanceToPending() bool {
	e.mu.Lock()
	st := e.ep.PollStateFor(&e.progSpec)
	e.mu.Unlock()
	if st.HasEarliest {
		e.p.AdvanceTo(st.Earliest)
	}
	return st.HasEarliest
}

func (e *Env) deliver(r *Request, m *fabric.Message) {
	t0 := e.p.Now()
	e.layer.Absorb(e.p, m, e.costs().MatchNS)
	if sh := e.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpRecv, m.Src, len(m.Data), m.Tag, t0, e.p.Now())
	}
	st := Status{Source: r.comm.commRankOfWorld(m.Src), Tag: m.Tag, Count: len(m.Data)}
	var err error
	if len(m.Data) > len(r.buf) {
		err = fmt.Errorf("mpi: message truncated (%d bytes into %d-byte buffer)", len(m.Data), len(r.buf))
		st.Count = len(r.buf)
	}
	copy(r.buf, m.Data)
	m.Release() // payload copied out; recycle the message and its buffer
	// deliver is the sole completer for a receive (the request left
	// e.posted before the call), so the fields need no lock — only the
	// release-ordered done store that snapshot pairs with.
	r.completeT = e.p.Now()
	r.status = st
	r.err = err
	r.done.Store(true)
	e.ep.Poke()
}
