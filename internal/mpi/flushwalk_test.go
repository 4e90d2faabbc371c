package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"cafmpi/internal/fabric"
	"cafmpi/internal/obs"
	"cafmpi/internal/sim"
)

// The flush family walks only the dirty peers and charges the clean ranks
// between them in bulk, and keeps per-target completion state in a map of
// the peers touched. This property test holds it to the specification it
// replaced: a reference that literally visits t = 0..Size-1, with plain
// per-rank arrays for every piece of state.

// refEpoch is the per-rank-loop model of one window's epoch on one image.
type refEpoch struct {
	size    int
	sparse  bool
	costs   *fabric.MPICosts
	latency int64

	clock      int64
	pendingT   []int64
	hasPending []bool
	touched    []bool // sparse mode's dirty set, as a per-rank array

	// What the obs plane must have accumulated.
	scan, wait, overhead  int64 // edge components, summed
	scannedOps, flushAlls int64
}

func (r *refEpoch) note(t int, stamp int64) {
	if stamp > r.pendingT[t] {
		r.pendingT[t] = stamp
	}
	r.hasPending[t] = true
	r.touched[t] = true
}

func (r *refEpoch) complete(t int) {
	if r.pendingT[t] > r.clock {
		r.wait += r.pendingT[t] - r.clock
		r.clock = r.pendingT[t]
	}
	r.clock += r.costs.FlushNS
	r.overhead += r.costs.FlushNS
	r.hasPending[t] = false
}

func (r *refEpoch) flush(t int) {
	if r.hasPending[t] {
		r.complete(t)
	} else {
		r.clock += r.costs.FlushScanNS
		r.scan += r.costs.FlushScanNS
	}
	r.touched[t] = false
}

func (r *refEpoch) flushAll() {
	r.flushAlls++
	for t := 0; t < r.size; t++ {
		if r.sparse && !r.touched[t] {
			continue
		}
		r.scannedOps++
		r.clock += r.costs.FlushScanNS
		r.scan += r.costs.FlushScanNS
		if r.hasPending[t] {
			r.complete(t)
		}
		r.touched[t] = false
	}
}

// rflushAll returns the request's completion time.
func (r *refEpoch) rflushAll() int64 {
	done := r.clock
	any := false
	for t := 0; t < r.size; t++ {
		r.touched[t] = false
		if !r.hasPending[t] {
			continue
		}
		any = true
		r.scannedOps++
		r.clock += r.costs.FlushScanNS
		r.scan += r.costs.FlushScanNS
		done = max(done, r.pendingT[t]+r.costs.FlushNS)
		r.hasPending[t] = false
	}
	if any {
		done = max(done, r.clock+r.latency)
	}
	return done
}

func (r *refEpoch) lockAll() {
	n := int64(r.size)
	if r.sparse {
		n = 1
	}
	r.clock += n * r.costs.FlushScanNS
	r.scan += n * r.costs.FlushScanNS
	clear(r.touched) // an epoch boundary resets the touched set
}

// flushRig is rank 0's side of a window on an n-rank world. The flush family
// is origin-local, so no peer runs and the window is built without the
// collective allocation; operations are issued by marking the epoch directly.
type flushRig struct {
	*Win
	sh *obs.Shard
}

func newFlushRig(n int, sparse bool) *flushRig {
	params := tp()
	if sparse {
		params = sp()
	}
	w := sim.NewWorld(n)
	obs.Enable(w, 0)
	env := Init(w.Proc(0), fabric.AttachNet(w, params))
	rig := &flushRig{Win: &Win{}, sh: env.sh}
	rig.epInit(env, env.CommWorld())
	return rig
}

// check compares everything observable against the reference; quiescent
// additionally demands the post-flush-all state.
func (g *flushRig) check(ref *refEpoch, quiescent bool) error {
	if got := g.env.p.Now(); got != ref.clock {
		return fmt.Errorf("clock %d, per-rank loop %d", got, ref.clock)
	}
	dirty := make([]bool, ref.size)
	walked := g.dirty.AppendSorted(nil)
	for _, t := range walked {
		dirty[t] = true
	}
	var pendingTotal int64
	for t := 0; t < ref.size; t++ {
		var pp peerPending
		if e := g.pending[int32(t)]; e != nil {
			pp = *e
		}
		if has := pp.ops > 0; has != ref.hasPending[t] {
			return fmt.Errorf("rank %d pending = %v, per-rank loop %v", t, has, ref.hasPending[t])
		}
		if pp.ops > 0 && !dirty[t] {
			return fmt.Errorf("rank %d has pending operations but is not in the walked set", t)
		}
		if pp.t != ref.pendingT[t] {
			return fmt.Errorf("rank %d completion stamp %d, per-rank loop %d", t, pp.t, ref.pendingT[t])
		}
		pendingTotal += pp.ops
	}
	if len(g.pending) > ref.size {
		return fmt.Errorf("%d pending entries on a %d-rank window", len(g.pending), ref.size)
	}
	if g.pendingTotal != pendingTotal {
		return fmt.Errorf("pendingTotal %d, sum of pendingOps %d", g.pendingTotal, pendingTotal)
	}
	if quiescent && (pendingTotal != 0 || len(walked) != 0) {
		return fmt.Errorf("after a flush-all: pendingTotal %d, dirty set %d, want 0 and 0", pendingTotal, len(walked))
	}
	var comps [3]int64
	for _, e := range g.sh.Edges() {
		for _, c := range e.Comps[:e.NComps] {
			switch c.C {
			case obs.CompFlushScan:
				comps[0] += c.NS
			case obs.CompFlushWait:
				comps[1] += c.NS
			case obs.CompOverhead:
				comps[2] += c.NS
			}
		}
	}
	if want := [3]int64{ref.scan, ref.wait, ref.overhead}; comps != want {
		return fmt.Errorf("edge components scan/wait/overhead %v, per-rank loop %v", comps, want)
	}
	if got := g.sh.Counter(obs.CtrFlushAllScannedOps); got != ref.scannedOps {
		return fmt.Errorf("flushall_scanned_ops %d, per-rank loop %d", got, ref.scannedOps)
	}
	if got := g.sh.Counter(obs.CtrFlushAllCalls); got != ref.flushAlls {
		return fmt.Errorf("flushall_calls %d, per-rank loop %d", got, ref.flushAlls)
	}
	return nil
}

// runFlushProperty drives one random operation sequence through a rig and
// the reference in lockstep.
func runFlushProperty(n int, sparse bool, seed int64) error {
	g := newFlushRig(n, sparse)
	params := g.env.net.Params()
	ref := &refEpoch{size: n, sparse: sparse, costs: &params.MPI, latency: params.LatencyNS,
		pendingT: make([]int64, n), hasPending: make([]bool, n), touched: make([]bool, n)}
	rng := rand.New(rand.NewSource(seed))
	p := g.env.p

	if err := g.LockAll(); err != nil {
		return err
	}
	ref.lockAll()
	for step := 0; step < 80; step++ {
		quiescent := false
		var err error
		switch op := rng.Intn(11); {
		case op < 4: // a burst of RMA ops with random completion stamps, some in the past
			for k := rng.Intn(n + 2); k > 0; k-- {
				t, stamp := rng.Intn(n), p.Now()+int64(rng.Intn(6000))-1000
				g.notePending(t, stamp)
				ref.note(t, stamp)
			}
		case op == 4: // Rget: touches its peer, leaves nothing pending
			t := rng.Intn(n)
			g.touch(t)
			ref.touched[t] = true
		case op == 5:
			d := int64(rng.Intn(3000))
			p.Advance(d)
			ref.clock += d
		case op == 6:
			t := rng.Intn(n)
			err = g.Flush(t)
			ref.flush(t)
		case op == 7 || op == 8:
			var r *Request
			if r, err = g.RflushAll(); err == nil {
				if want := ref.rflushAll(); r.completeT != want {
					err = fmt.Errorf("RflushAll completes at %d, per-rank loop %d", r.completeT, want)
				}
			}
			quiescent = true
		case op == 10:
			// RflushAll clears its targets without advancing the clock;
			// re-noting one below that stale high-water mark must still
			// wait for the mark at the next flush.
			t := rng.Intn(n)
			var r *Request
			r, err = g.RflushAll()
			want := ref.rflushAll()
			if err == nil && r.completeT != want {
				err = fmt.Errorf("request-generating flush completes at %d, per-rank loop %d", r.completeT, want)
			}
			stamp := ref.pendingT[t] - 1 - int64(rng.Intn(1000))
			g.notePending(t, stamp)
			ref.note(t, stamp)
		case op == 9 && rng.Intn(2) == 0: // close and reopen the epoch
			if err = g.UnlockAll(); err == nil {
				err = g.LockAll()
			}
			ref.flushAll()
			ref.lockAll()
			quiescent = true
		default:
			err = g.FlushAll()
			ref.flushAll()
			quiescent = true
		}
		if err == nil {
			err = g.check(ref, quiescent)
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

func TestFlushWalkEqualsPerRankLoop(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 130, 300} { // across the 64-rank PeerSet boundary
		for _, sparse := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				if err := runFlushProperty(n, sparse, seed); err != nil {
					t.Errorf("n=%d sparse=%v seed=%d: %v", n, sparse, seed, err)
				}
			}
		}
	}
}
