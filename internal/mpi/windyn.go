package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cafmpi/internal/obs"
)

// Dynamic windows (MPI_WIN_CREATE_DYNAMIC / MPI_WIN_ATTACH / MPI_WIN_DETACH,
// §2.2 of the paper): a window created without memory, to which each rank
// attaches regions later. Remote accesses address attached memory by the
// region handle plus a byte displacement — the analogue of MPI's absolute
// remote addresses (which MPI_Get_address would expose).

// DynRegion names one attached region on one rank. Exchange it with peers
// (e.g. via Allgather) the way real MPI programs exchange base addresses.
type DynRegion struct {
	Rank int   // owner (comm rank)
	Key  int64 // region identifier, unique per owner
}

// dynShared is the cross-image state of one dynamic window.
type dynShared struct {
	mu      sync.Mutex
	regions map[DynRegion][]byte // guarded by mu
	atomMu  []sync.Mutex
}

// DynWin is a dynamic window as seen by one image. Completion tracking and
// the flush scan/blame sequences live in the shared epoch (see epoch.go).
type DynWin struct {
	epoch
	sh *dynShared

	lockedAll bool
	nextKey   int64
	attached  map[int64][]byte

	// attachedBytes is the sum of currently attached region sizes; each
	// region also carries PeerStateBytes of registration metadata. Both are
	// charged to the image's modeled footprint at Attach and released at
	// Detach/Free.
	attachedBytes int64
}

// WinCreateDynamic collectively creates a window with no memory attached.
func WinCreateDynamic(c *Comm) (*DynWin, error) {
	c.env.checkLive()
	key := fmt.Sprintf("dynwin/%d/%d/%d", c.ctx, c.winSeq, c.ranks[0])
	c.winSeq++
	ws := c.env.ws
	ws.mu.Lock()
	shAny, ok := ws.dynWins[key]
	if !ok {
		shAny = &dynShared{regions: make(map[DynRegion][]byte), atomMu: make([]sync.Mutex, c.Size())}
		ws.dynWins[key] = shAny
	}
	ws.mu.Unlock()

	w := &DynWin{
		sh:       shAny,
		attached: make(map[int64][]byte),
	}
	w.epInit(c.env, c)
	c.env.p.Advance(c.env.costs().WinSetupNS) // no per-rank memory exchange
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return w, nil
}

// Attach exposes mem for remote access through the window and returns its
// region handle (MPI_WIN_ATTACH). Local, not collective.
//
//caflint:allow obsedge -- local registration bookkeeping; no peer or transfer to attribute
func (w *DynWin) Attach(mem []byte) (DynRegion, error) {
	if mem == nil {
		return DynRegion{}, fmt.Errorf("mpi: attaching nil memory")
	}
	w.nextKey++
	reg := DynRegion{Rank: w.comm.myRank, Key: w.nextKey}
	w.attached[reg.Key] = mem
	w.sh.mu.Lock()
	w.sh.regions[reg] = mem
	w.sh.mu.Unlock()
	w.env.p.Advance(w.env.costs().WinSetupNS) // registration cost
	w.chargeRegion(int64(len(mem)))
	return reg, nil
}

// chargeRegion adjusts the image's modeled footprint for one attached
// region: its memory plus PeerStateBytes of registration metadata
// (pinning/rkey state the NIC holds per registration). Negative delta on
// detach releases both — the leak this used to have was charging into a
// window-local counter that fed nothing and never shrank the image total.
func (w *DynWin) chargeRegion(delta int64) {
	meta := int64(w.env.costs().PeerStateBytes)
	if delta < 0 {
		meta = -meta
	}
	w.attachedBytes += delta
	atomic.AddInt64(&w.env.footprint, delta+meta)
}

// Detach withdraws a region (MPI_WIN_DETACH).
func (w *DynWin) Detach(reg DynRegion) error {
	if reg.Rank != w.comm.myRank {
		return fmt.Errorf("mpi: detaching a region owned by rank %d", reg.Rank)
	}
	mem, ok := w.attached[reg.Key]
	if !ok {
		return fmt.Errorf("mpi: region %v not attached", reg)
	}
	delete(w.attached, reg.Key)
	w.chargeRegion(-int64(len(mem)))
	w.sh.mu.Lock()
	delete(w.sh.regions, reg)
	w.sh.mu.Unlock()
	return nil
}

// LockAll opens the passive-target epoch.
func (w *DynWin) LockAll() error {
	if w.lockedAll {
		return fmt.Errorf("mpi: LockAll inside an existing epoch")
	}
	w.lockedAll = true
	w.lockAllEpoch()
	return nil
}

// UnlockAll flushes and closes the epoch.
func (w *DynWin) UnlockAll() error {
	if !w.lockedAll {
		return fmt.Errorf("mpi: UnlockAll without LockAll")
	}
	if err := w.FlushAll(); err != nil {
		return err
	}
	w.lockedAll = false
	return nil
}

func (w *DynWin) resolve(reg DynRegion, disp, n int, what string) ([]byte, error) {
	if !w.lockedAll {
		return nil, fmt.Errorf("mpi: %s outside an access epoch", what)
	}
	if err := w.comm.checkRank(reg.Rank, what); err != nil {
		return nil, err
	}
	w.sh.mu.Lock()
	mem, ok := w.sh.regions[reg]
	w.sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("mpi: %s to unattached region %v", what, reg)
	}
	if disp < 0 || disp+n > len(mem) {
		return nil, fmt.Errorf("mpi: %s range [%d,%d) outside region of %d bytes", what, disp, disp+n, len(mem))
	}
	return mem, nil
}

// Put writes buf into the target's attached region at disp.
func (w *DynWin) Put(buf []byte, reg DynRegion, disp int) error {
	mem, err := w.resolve(reg, disp, len(buf), "Put")
	if err != nil {
		return err
	}
	worldDst := w.comm.ranks[reg.Rank]
	done := w.env.layer.RMAPut(w.env.p, worldDst, len(buf), w.env.costs().PutNS)
	copy(mem[disp:], buf)
	w.notePending(reg.Rank, done)
	return nil
}

// Get reads from the target's attached region at disp into buf.
func (w *DynWin) Get(buf []byte, reg DynRegion, disp int) error {
	mem, err := w.resolve(reg, disp, len(buf), "Get")
	if err != nil {
		return err
	}
	pr := w.env.net.Params()
	worldDst := w.comm.ranks[reg.Rank]
	t0 := w.env.p.Now()
	w.env.p.Advance(w.env.costs().GetNS)
	copy(buf, mem[disp:])
	w.notePending(reg.Rank, w.env.p.Now()+2*pr.PathLatency(w.env.p.ID(), worldDst)+pr.PathWireTime(w.env.p.ID(), worldDst, len(buf)))
	if sh := w.env.sh; sh != nil {
		sh.Record(obs.LayerMPI, obs.OpGet, worldDst, len(buf), 0, t0, w.env.p.Now())
		sh.Add(obs.CtrRDMAGets, 1)
		sh.Add(obs.CtrRDMABytes, int64(len(buf)))
		sh.CommAdd(worldDst, int64(len(buf)))
	}
	return nil
}

// Accumulate atomically combines buf into the target region with op.
func (w *DynWin) Accumulate(buf []byte, reg DynRegion, disp int, dt Datatype, op Op) error {
	mem, err := w.resolve(reg, disp, len(buf), "Accumulate")
	if err != nil {
		return err
	}
	worldDst := w.comm.ranks[reg.Rank]
	done := w.env.layer.RMAPut(w.env.p, worldDst, len(buf), w.env.costs().AtomicNS)
	w.sh.atomMu[reg.Rank].Lock()
	rerr := reduceInto(mem[disp:disp+len(buf)], buf, dt, op)
	w.sh.atomMu[reg.Rank].Unlock()
	if rerr != nil {
		return rerr
	}
	w.notePending(reg.Rank, done)
	return nil
}

// Flush completes outstanding operations to target.
func (w *DynWin) Flush(target int) error {
	if !w.lockedAll {
		return fmt.Errorf("mpi: Flush outside an access epoch")
	}
	if err := w.comm.checkRank(target, "Flush"); err != nil {
		return err
	}
	w.flushTarget(target)
	return nil
}

// FlushAll completes outstanding operations to every target (the same
// per-rank MPICH scan — or dirty-peer walk — as fixed windows).
func (w *DynWin) FlushAll() error {
	if !w.lockedAll {
		return fmt.Errorf("mpi: FlushAll outside an access epoch")
	}
	w.flushAllEpoch()
	return nil
}

// Free releases the window collectively; attached regions are detached and
// their memory plus registration metadata released from the footprint.
func (w *DynWin) Free() error {
	if err := w.comm.Barrier(); err != nil {
		return err
	}
	w.sh.mu.Lock()
	for key, mem := range w.attached {
		delete(w.sh.regions, DynRegion{Rank: w.comm.myRank, Key: key})
		w.chargeRegion(-int64(len(mem)))
	}
	w.sh.mu.Unlock()
	w.attached = map[int64][]byte{}
	return nil
}
