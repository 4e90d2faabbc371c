package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cafmpi/internal/obs"
)

// winShared is the cross-image state of one window: every rank's memory and
// the per-rank locks that serialize atomic accumulates.
type winShared struct {
	key    string
	bases  [][]byte // indexed by comm rank
	atomMu []sync.Mutex
}

// Win is an MPI-3 window as seen by one image. RMA operations require the
// lock-all access epoch; CAF-MPI lock_alls every window at coarray
// allocation and keeps the epoch open for the window's lifetime (§3.1).
//
// The embedded epoch carries the origin-side completion tracking whose
// linear FlushAll scan is the MPICH behaviour dominating the paper's
// Figure 4 — and the dirty-peer set that, in scalable-sync mode, fixes it.
type Win struct {
	epoch
	sh   *winShared
	size int

	lockedAll bool
	freed     bool
}

// WinAllocate collectively creates a window of size bytes on every rank of
// comm, like MPI_WIN_ALLOCATE (the implementation allocates the memory,
// giving it freedom to use special regions — here the benefit is modeled in
// the setup cost only).
func WinAllocate(c *Comm, size int) (*Win, error) {
	c.env.checkLive()
	if size < 0 {
		return nil, fmt.Errorf("mpi: negative window size %d", size)
	}
	// Disjoint communicators born of one Split share a context id, so the
	// registry key also carries the group identity (rank 0's world rank).
	key := fmt.Sprintf("win/%d/%d/%d", c.ctx, c.winSeq, c.ranks[0])
	c.winSeq++
	ws := c.env.ws
	ws.mu.Lock()
	sh, ok := ws.wins[key]
	if !ok {
		sh = &winShared{key: key, bases: make([][]byte, c.Size()), atomMu: make([]sync.Mutex, c.Size())}
		ws.wins[key] = sh
	}
	sh.bases[c.myRank] = make([]byte, size)
	ws.mu.Unlock()

	w := &Win{sh: sh, size: size}
	w.epInit(c.env, c)
	c.env.p.Advance(c.env.costs().WinSetupNS * int64(c.Size()))
	atomic.AddInt64(&c.env.footprint, int64(size))
	// The barrier both orders window-memory publication (every base set
	// before any rank returns) and models the collective synchronization
	// of window creation.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return w, nil
}

// Base returns the local window memory.
func (w *Win) Base() []byte { return w.sh.bases[w.comm.myRank] }

// Size returns the local window size in bytes.
func (w *Win) Size() int { return w.size }

// Comm returns the communicator the window was created on.
func (w *Win) Comm() *Comm { return w.comm }

// Free releases the window collectively.
func (w *Win) Free() error {
	if w.freed {
		return fmt.Errorf("mpi: window already freed")
	}
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	w.freed = true
	atomic.AddInt64(&w.env.footprint, -int64(w.size))
	w.env.ws.mu.Lock()
	delete(w.env.ws.wins, w.sh.key)
	w.env.ws.mu.Unlock()
	return nil
}

// LockAll opens a shared access epoch to every target (MPI_WIN_LOCK_ALL
// with MPI_MODE_NOCHECK semantics: acquisition is lazy and cheap).
func (w *Win) LockAll() error {
	if w.lockedAll {
		return fmt.Errorf("mpi: LockAll inside an existing lock-all epoch")
	}
	w.lockedAll = true
	w.lockAllEpoch()
	return nil
}

// UnlockAll flushes and closes the lock-all epoch.
func (w *Win) UnlockAll() error {
	if !w.lockedAll {
		return fmt.Errorf("mpi: UnlockAll without LockAll")
	}
	if err := w.FlushAll(); err != nil {
		return err
	}
	w.lockedAll = false
	return nil
}

func (w *Win) checkAccess(target int, what string) error {
	if w.freed {
		return fmt.Errorf("mpi: %s on freed window", what)
	}
	if err := w.comm.checkRank(target, what); err != nil {
		return err
	}
	if !w.lockedAll {
		// MPI-3 RMA usage violation: surfaced to the sanitizer (so a
		// -sanitize run reports it alongside data races) and still returned
		// as the hard error it always was.
		w.env.san.RMAViolation(fmt.Sprintf("image %d: %s to window target %d outside an access epoch (no LockAll)",
			w.env.p.ID(), what, target))
		return fmt.Errorf("mpi: %s to target %d outside an access epoch (call LockAll first)", what, target)
	}
	return nil
}

func (w *Win) checkRange(target, disp, n int, what string) error {
	if disp < 0 || disp+n > len(w.sh.bases[target]) {
		return fmt.Errorf("mpi: %s range [%d,%d) outside window of size %d", what, disp, disp+n, len(w.sh.bases[target]))
	}
	return nil
}

// Put copies buf into the target's window at byte displacement disp
// (MPI_PUT: completes remotely only after a flush or epoch close).
func (w *Win) Put(buf []byte, target, disp int) error {
	if err := w.checkAccess(target, "Put"); err != nil {
		return err
	}
	if err := w.checkRange(target, disp, len(buf), "Put"); err != nil {
		return err
	}
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	done := w.env.layer.RMAPut(w.env.p, worldDst, len(buf), w.env.costs().PutNS)
	copy(w.sh.bases[target][disp:], buf)
	w.notePending(target, done)
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpPut, worldDst, len(buf), 0, t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAPuts, 1)
		sh.Add(obs.CtrRDMABytes, int64(len(buf)))
	}
	return nil
}

// Get copies from the target's window at disp into buf (MPI_GET: the buffer
// must not be read until a flush; the virtual completion time is charged at
// the flush).
func (w *Win) Get(buf []byte, target, disp int) error {
	if err := w.checkAccess(target, "Get"); err != nil {
		return err
	}
	if err := w.checkRange(target, disp, len(buf), "Get"); err != nil {
		return err
	}
	pr := w.env.net.Params()
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	w.env.p.Advance(w.env.costs().GetNS)
	copy(buf, w.sh.bases[target][disp:])
	w.notePending(target, w.env.p.Now()+2*pr.PathLatency(w.env.p.ID(), worldDst)+pr.PathWireTime(w.env.p.ID(), worldDst, len(buf)))
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpGet, worldDst, len(buf), 0, t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAGets, 1)
		sh.Add(obs.CtrRDMABytes, int64(len(buf)))
		sh.CommAdd(worldDst, int64(len(buf)))
	}
	return nil
}

// Rput is Put returning a request that completes at *local* completion
// (MPI-3 semantics: remote completion still requires a flush).
func (w *Win) Rput(buf []byte, target, disp int) (*Request, error) {
	if err := w.Put(buf, target, disp); err != nil {
		return nil, err
	}
	r := newRequest(w.env, nil)
	r.completeT = w.env.p.Now()
	r.done.Store(true)
	return r, nil
}

// Rget is Get returning a request; its completion covers both local and
// remote completion (MPI-3 §11.3.5), so waiting on it makes buf readable.
func (w *Win) Rget(buf []byte, target, disp int) (*Request, error) {
	if err := w.checkAccess(target, "Rget"); err != nil {
		return nil, err
	}
	if err := w.checkRange(target, disp, len(buf), "Rget"); err != nil {
		return nil, err
	}
	pr := w.env.net.Params()
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	w.env.p.Advance(w.env.costs().GetNS)
	copy(buf, w.sh.bases[target][disp:])
	done := w.env.p.Now() + 2*pr.PathLatency(w.env.p.ID(), worldDst) + pr.PathWireTime(w.env.p.ID(), worldDst, len(buf))
	// Rget completes through its request, not a flush, but the epoch still
	// touched this peer: sparse flushes must cover its happens-before edge.
	w.touch(target)
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpGet, worldDst, len(buf), 0, t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAGets, 1)
		sh.Add(obs.CtrRDMABytes, int64(len(buf)))
		sh.CommAdd(worldDst, int64(len(buf)))
	}
	r := newRequest(w.env, nil)
	r.completeT = done
	r.done.Store(true)
	return r, nil
}

// Accumulate atomically combines buf into the target window with op
// (MPI_ACCUMULATE; atomic per element with respect to other accumulates).
func (w *Win) Accumulate(buf []byte, target, disp int, dt Datatype, op Op) error {
	if err := w.checkAccess(target, "Accumulate"); err != nil {
		return err
	}
	if err := w.checkRange(target, disp, len(buf), "Accumulate"); err != nil {
		return err
	}
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	done := w.env.layer.RMAPut(w.env.p, worldDst, len(buf), w.env.costs().AtomicNS)
	w.sh.atomMu[target].Lock()
	err := reduceInto(w.sh.bases[target][disp:disp+len(buf)], buf, dt, op)
	w.sh.atomMu[target].Unlock()
	if err != nil {
		return err
	}
	w.notePending(target, done)
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpAccumulate, worldDst, len(buf), int(op), t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAAtomics, 1)
		sh.Add(obs.CtrRDMABytes, int64(len(buf)))
	}
	// Wake a target parked in a busy-wait re-probe loop (the atomic landed).
	w.env.layer.Endpoint(worldDst).Poke()
	return nil
}

// GetAccumulate fetches the prior target contents into result and combines
// buf into the target with op, atomically. result may be nil with OpNoOp
// ... but then use Get; with op OpNoOp the fetch is pure (MPI_NO_OP).
func (w *Win) GetAccumulate(buf, result []byte, target, disp int, dt Datatype, op Op) error {
	if err := w.checkAccess(target, "GetAccumulate"); err != nil {
		return err
	}
	n := len(result)
	if op != OpNoOp && len(buf) != n {
		return fmt.Errorf("mpi: GetAccumulate origin (%d) and result (%d) sizes differ", len(buf), n)
	}
	if err := w.checkRange(target, disp, n, "GetAccumulate"); err != nil {
		return err
	}
	pr := w.env.net.Params()
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	w.env.p.Advance(w.env.costs().AtomicNS + 2*pr.PathLatency(w.env.p.ID(), worldDst) + pr.PathWireTime(w.env.p.ID(), worldDst, n))
	w.sh.atomMu[target].Lock()
	copy(result, w.sh.bases[target][disp:disp+n])
	var err error
	if op != OpNoOp {
		err = reduceInto(w.sh.bases[target][disp:disp+n], buf, dt, op)
	}
	w.sh.atomMu[target].Unlock()
	if err != nil {
		return err
	}
	w.notePending(target, w.env.p.Now())
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpAccumulate, worldDst, n, int(op), t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAAtomics, 1)
		sh.Add(obs.CtrRDMABytes, int64(n))
		sh.CommAdd(worldDst, int64(n))
	}
	return nil
}

// FetchAndOp is the single-element fast path of GetAccumulate
// (MPI_FETCH_AND_OP).
func (w *Win) FetchAndOp(buf, result []byte, target, disp int, dt Datatype, op Op) error {
	if len(result) != dt.Size() || (op != OpNoOp && len(buf) != dt.Size()) {
		return fmt.Errorf("mpi: FetchAndOp operates on exactly one %s element", dt)
	}
	return w.GetAccumulate(buf, result, target, disp, dt, op)
}

// CompareAndSwap atomically replaces the target element with origin if it
// equals compare, returning the prior value in result (MPI_COMPARE_AND_SWAP).
func (w *Win) CompareAndSwap(origin, compare, result []byte, target, disp int, dt Datatype) error {
	if err := w.checkAccess(target, "CompareAndSwap"); err != nil {
		return err
	}
	n := dt.Size()
	if len(origin) != n || len(compare) != n || len(result) != n {
		return fmt.Errorf("mpi: CompareAndSwap buffers must be exactly one %s element", dt)
	}
	if err := w.checkRange(target, disp, n, "CompareAndSwap"); err != nil {
		return err
	}
	pr := w.env.net.Params()
	worldDst := w.comm.ranks[target]
	t0 := w.env.p.Now()
	w.env.p.Advance(w.env.costs().AtomicNS + 2*pr.PathLatency(w.env.p.ID(), worldDst) + pr.PathWireTime(w.env.p.ID(), worldDst, n))
	w.sh.atomMu[target].Lock()
	tgt := w.sh.bases[target][disp : disp+n]
	copy(result, tgt)
	if string(tgt) == string(compare) {
		copy(tgt, origin)
	}
	w.sh.atomMu[target].Unlock()
	w.notePending(target, w.env.p.Now())
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpAccumulate, worldDst, n, 0, t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAAtomics, 1)
		sh.Add(obs.CtrRDMABytes, int64(n))
		sh.CommAdd(worldDst, int64(n))
	}
	return nil
}

// Flush completes all outstanding operations to target at the target
// (MPI_WIN_FLUSH). It blocks the caller until remote completion.
func (w *Win) Flush(target int) error {
	if err := w.checkAccess(target, "Flush"); err != nil {
		return err
	}
	w.flushTarget(target)
	return nil
}

// FlushAll completes outstanding operations to every target. MPICH
// derivatives (MVAPICH, Cray MPI) implement this as a flush of each rank in
// the window's group, so the cost grows linearly with the communicator size
// — the scalability issue the paper analyzes in §4.1 and proposes
// MPI_WIN_RFLUSH to mitigate.
func (w *Win) FlushAll() error {
	if w.freed {
		return fmt.Errorf("mpi: FlushAll on freed window")
	}
	if !w.lockedAll {
		return fmt.Errorf("mpi: FlushAll outside a lock-all epoch")
	}
	w.flushAllEpoch()
	return nil
}

// RflushAll starts a flush to every target and returns one request that
// completes when all of them do. Unlike FlushAll, the linear scan is the
// only blocking part; completion latency is overlappable.
func (w *Win) RflushAll() (*Request, error) {
	if w.freed {
		return nil, fmt.Errorf("mpi: RflushAll on freed window")
	}
	// Unlike the blocking FlushAll, the request-generating form lets the
	// implementation complete only the targets with outstanding operations
	// (it hands back a handle instead of scanning the communicator), which
	// is precisely the scalability fix the paper argues for in §5.
	done := w.rflushAllEpoch()
	r := newRequest(w.env, nil)
	r.completeT = done
	r.done.Store(true)
	return r, nil
}
