package mpi

import (
	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
)

// epoch is the origin-side completion state of one window's access epoch:
// the flush scan/blame sequences live here, apart from Win's argument
// checking.
//
// Every RMA op marks its target in a dirty-peer set, and the flush-all paths
// walk that set in ascending rank order — never the whole communicator. The
// two charging modes differ only in what the ranks *between* dirty peers
// cost:
//
//   - Default (paper-faithful): each clean rank is still charged FlushScanNS
//     — the MPICH-derivative scan whose linear growth the paper charts in
//     Figure 4 — as one advance per gap, so the virtual charge is Size ×
//     FlushScanNS while the host walk is |dirty|.
//
//   - Sparse (fabric.MPICosts.SparseFlush, foMPI-like): clean ranks are free.
//
// The set is cleared at FlushAll and RflushAll, and per peer on targeted
// Flush. Invariant: every target with pending operations is dirty.
type epoch struct {
	env  *Env
	comm *Comm

	// pending holds one entry per target (comm rank) ever issued to,
	// allocated on first use. A flush zeroes the op count but keeps the
	// stamp as a high-water mark: RflushAll clears without advancing the
	// clock, so a later op with an earlier stamp still waits
	// for it. pendingTotal sums the op counts (the pending_rma_max gauge).
	pending      map[int32]*peerPending
	pendingTotal int64

	// dirty holds the comm ranks this epoch has touched; peerScratch and
	// worldScratch are reusable buffers for the sorted walk (sorted iteration
	// keeps the clock deterministic) and the sanitizer's world-rank fence
	// list.
	sparse       bool
	dirty        fabric.PeerSet
	peerScratch  []int
	worldScratch []int
}

// peerPending is one target's latest remote-completion stamp and count of
// unflushed operations.
type peerPending struct{ t, ops int64 }

// epInit binds the epoch to comm and latches the mode from the platform.
func (ep *epoch) epInit(env *Env, comm *Comm) {
	ep.env = env
	ep.comm = comm
	ep.sparse = env.costs().SparseFlush
	ep.dirty.Init(comm.Size())
}

// notePending records a remote completion timestamp for target and marks
// the peer dirty. Every issuing path (Put/Get/Accumulate and the atomics)
// funnels through here, so the dirty set is exactly "peers this epoch
// touched".
func (ep *epoch) notePending(target int, t int64) {
	pp := ep.pending[int32(target)]
	if pp == nil {
		if ep.pending == nil {
			ep.pending = make(map[int32]*peerPending)
		}
		pp = &peerPending{}
		ep.pending[int32(target)] = pp
	}
	pp.t = max(pp.t, t)
	pp.ops++
	ep.pendingTotal++
	ep.env.sh.Max(obs.CtrPendingRMAMax, ep.pendingTotal)
	ep.touch(target)
}

// touch marks target dirty without an outstanding timestamp — for
// operations like Rget whose completion rides a request rather than a
// flush, but whose happens-before edge a sparse flush must still cover.
// It also drives the on-demand connection model: first contact with a
// peer charges its eager-pool state.
func (ep *epoch) touch(target int) {
	ep.dirty.Add(target)
	ep.env.connect(ep.comm.ranks[target])
}

// takePending marks target flushed, releasing its outstanding-op count, and
// returns its completion stamp; ok is false when nothing was pending.
func (ep *epoch) takePending(target int) (stamp int64, ok bool) {
	pp := ep.pending[int32(target)]
	if pp == nil || pp.ops == 0 {
		return 0, false
	}
	ep.pendingTotal -= pp.ops
	pp.ops = 0
	return pp.t, true
}

// dirtyPeers returns the touched comm ranks in ascending order, reusing
// the epoch's scratch buffer.
func (ep *epoch) dirtyPeers() []int {
	ep.peerScratch = ep.dirty.AppendSorted(ep.peerScratch[:0])
	return ep.peerScratch
}

// worldRanks translates comm ranks to world ranks for the sanitizer's
// peer-scoped fence, reusing scratch.
func (ep *epoch) worldRanks(peers ...int) []int {
	ep.worldScratch = ep.worldScratch[:0]
	for _, t := range peers {
		ep.worldScratch = append(ep.worldScratch, ep.comm.ranks[t])
	}
	return ep.worldScratch
}

// flushTarget charges the MPI_WIN_FLUSH sequence for one target: wait out
// its outstanding completion timestamp plus FlushNS if anything is
// pending, otherwise the bookkeeping scan. Win.Flush has already validated
// the epoch.
func (ep *epoch) flushTarget(target int) {
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	var waited int64
	stamp, pending := ep.takePending(target)
	if pending {
		p.AdvanceTo(stamp)
		waited = p.Now() - t0
		p.Advance(c.FlushNS)
	} else {
		p.Advance(c.FlushScanNS)
	}
	ep.dirty.Remove(target)
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlush, ep.comm.ranks[target], 0, 0, t0, end)
		sh.Add(obs.CtrFlushCalls, 1)
		e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlush,
			Peer: int32(ep.comm.ranks[target]), Start: t0, End: end}
		if pending {
			e.AddComp(obs.CompFlushWait, waited)
			e.AddComp(obs.CompOverhead, c.FlushNS)
		} else {
			e.AddComp(obs.CompFlushScan, c.FlushScanNS)
		}
		sh.RecordEdge(e)
	}
	// Remote completion defines deferred-get destinations. A targeted flush
	// only orders operations to this peer, so sparse mode fences just it;
	// the default mode keeps the historical full fence.
	if ep.sparse {
		ep.env.san.FenceLocalPeers(ep.worldRanks(target))
	} else {
		ep.env.san.FenceLocal()
	}
}

// flushAllEpoch charges the MPI_WIN_FLUSH_ALL sequence: one walk over the
// dirty set in ascending rank order, clearing it. Default mode also charges
// the clean ranks in the gaps (the §4.1 bottleneck, Size × FlushScanNS in
// virtual time); sparse mode charges only what the epoch touched.
func (ep *epoch) flushAllEpoch() {
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	var waited int64
	flushed := 0
	peers := ep.dirtyPeers()
	size := ep.comm.Size()
	cleanNS, scanned := c.FlushScanNS, size
	if ep.sparse {
		cleanNS, scanned = 0, len(peers)
	}
	next := 0 // first rank the scan has not charged yet
	for _, t := range peers {
		p.Advance(cleanNS*int64(t-next) + c.FlushScanNS)
		next = t + 1
		if stamp, ok := ep.takePending(t); ok {
			pre := p.Now()
			p.AdvanceTo(stamp)
			waited += p.Now() - pre
			p.Advance(c.FlushNS)
			flushed++
		}
	}
	p.Advance(cleanNS * int64(size-next))
	ep.dirty.Clear()
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlushAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrFlushAllCalls, 1)
		sh.Add(obs.CtrFlushAllScannedOps, int64(scanned))
		// The scan blame separates bookkeeping from genuine completion
		// waits, so the per-rank (or per-dirty-peer) walk is visible even
		// when nothing was pending. A sparse flush of an untouched epoch is
		// free; skip the zero-length edge.
		if !ep.sparse || end > t0 {
			e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlushAll,
				Peer: -1, Start: t0, End: end}
			e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
			e.AddComp(obs.CompFlushWait, waited)
			e.AddComp(obs.CompOverhead, c.FlushNS*int64(flushed))
			sh.RecordEdge(e)
		}
	}
	if ep.sparse {
		// Happens-before edges reach the flushed (dirty) peers only: a
		// deferred get from an untouched peer stays unordered, so the
		// sanitizer still catches reads racing with it.
		ep.env.san.FenceLocalPeers(ep.worldRanks(peers...))
	} else {
		ep.env.san.FenceLocal()
	}
}

// rflushAllEpoch charges the request-generating flush-all (the paper's §5
// MPI_WIN_RFLUSH proposal) and returns the completion timestamp for the
// request. Only targets with outstanding operations are charged, in either
// mode; the dirty set is cleared, closing the epoch window the request
// covers.
func (ep *epoch) rflushAllEpoch() int64 {
	c := ep.env.costs()
	p := ep.env.p
	done := p.Now()
	t0 := p.Now()
	scanned := 0
	for _, t := range ep.dirtyPeers() {
		stamp, ok := ep.takePending(t)
		if !ok {
			continue
		}
		scanned++
		p.Advance(c.FlushScanNS)
		done = max(done, stamp+c.FlushNS)
	}
	ep.dirty.Clear()
	if scanned > 0 {
		if lat := p.Now() + ep.env.net.Params().LatencyNS; lat > done {
			done = lat
		}
	}
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpFlushAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrRflushAllCalls, 1)
		sh.Add(obs.CtrFlushAllScannedOps, int64(scanned))
		if end > t0 {
			e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpFlushAll,
				Peer: -1, Start: t0, End: end}
			e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
			sh.RecordEdge(e)
		}
	}
	return done
}

// lockAllEpoch charges epoch-open cost. MPICH derivatives lazily acquire
// every rank (FlushScanNS × Size even under MPI_MODE_NOCHECK); sparse mode
// defers per-peer acquisition to first use, so opening is O(1). The dirty
// set is already empty here: the UnlockAll that closed any previous epoch
// flushed it.
func (ep *epoch) lockAllEpoch() {
	c := ep.env.costs()
	p := ep.env.p
	t0 := p.Now()
	scanned := ep.comm.Size()
	if ep.sparse {
		scanned = 1
	}
	p.Advance(c.FlushScanNS * int64(scanned))
	if sh := ep.env.sh; sh != nil {
		end := p.Now()
		sh.Record(obs.LayerMPI, obs.OpLockAll, -1, 0, scanned, t0, end)
		sh.Add(obs.CtrLockAllCalls, 1)
		e := obs.Edge{Layer: obs.LayerMPI, Op: obs.OpLockAll,
			Peer: -1, Start: t0, End: end}
		e.AddComp(obs.CompFlushScan, c.FlushScanNS*int64(scanned))
		sh.RecordEdge(e)
	}
}
