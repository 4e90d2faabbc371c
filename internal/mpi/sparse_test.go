package mpi

import (
	"fmt"
	"testing"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

// sp returns the scalable-sync variant of the test fabric parameters.
func sp() *fabric.Params { return fabric.SparseVariant(tp()) }

// runSparseMPI executes fn on n images with MPI initialized in sparse mode.
func runSparseMPI(t *testing.T, n int, fn func(*Env) error) {
	t.Helper()
	w := sim.NewWorld(n)
	err := w.Run(func(p *sim.Proc) error {
		return fn(Init(p, fabric.AttachNet(p.World(), sp())))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirtySetTracksRMAOps: both charging modes keep the same dirty-peer set
// (the flush walks visit nothing else), so the bookkeeping is checked under
// each.
func TestDirtySetTracksRMAOps(t *testing.T) {
	scenario := func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() != 0 {
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.Barrier()
		}
		expect := func(what string, want int) error {
			if got := len(w.dirty.AppendSorted(nil)); got != want {
				return fmt.Errorf("after %s: dirty set has %d peers, want %d", what, got, want)
			}
			return nil
		}
		if err := expect("epoch open", 0); err != nil {
			return err
		}
		// Put, Accumulate, Get each mark their target; a repeat is idempotent.
		if err := w.Put([]byte{1}, 1, 0); err != nil {
			return err
		}
		if err := expect("Put", 1); err != nil {
			return err
		}
		if err := w.Put([]byte{2}, 1, 1); err != nil {
			return err
		}
		if err := expect("repeat Put to same peer", 1); err != nil {
			return err
		}
		one := []int64{1}
		if err := w.Accumulate(I64Bytes(one), 2, 0, Int64, OpSum); err != nil {
			return err
		}
		if err := expect("Accumulate", 2); err != nil {
			return err
		}
		if err := w.Get(make([]byte, 4), 3, 0); err != nil {
			return err
		}
		if err := expect("Get", 3); err != nil {
			return err
		}
		// FlushAll closes the epoch window: the set resets.
		if err := w.FlushAll(); err != nil {
			return err
		}
		if err := expect("FlushAll", 0); err != nil {
			return err
		}
		// Request-generating ops are tracked too: Rput carries a pending
		// timestamp, Rget completes via its request but must still be
		// covered by the next sparse flush's happens-before edge.
		r1, rerr := w.Rput([]byte{3}, 1, 0)
		if rerr != nil {
			return rerr
		}
		if err := expect("Rput", 1); err != nil {
			return err
		}
		r2, rerr := w.Rget(make([]byte, 1), 4, 0)
		if rerr != nil {
			return rerr
		}
		if err := expect("Rget", 2); err != nil {
			return err
		}
		if _, err := r1.Wait(); err != nil {
			return err
		}
		if _, err := r2.Wait(); err != nil {
			return err
		}
		r3, rerr := w.RflushAll()
		if rerr != nil {
			return rerr
		}
		if _, err := r3.Wait(); err != nil {
			return err
		}
		if err := expect("RflushAll", 0); err != nil {
			return err
		}
		// A targeted Flush removes just its peer.
		if err := w.Put([]byte{4}, 1, 0); err != nil {
			return err
		}
		if err := w.Put([]byte{5}, 2, 0); err != nil {
			return err
		}
		if err := w.Flush(1); err != nil {
			return err
		}
		if err := expect("targeted Flush", 1); err != nil {
			return err
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	}
	t.Run("flat", func(t *testing.T) { runMPI(t, 5, scenario) })
	t.Run("sparse", func(t *testing.T) { runSparseMPI(t, 5, scenario) })
}

func TestFlushAllCostLinearInDirtyPeers(t *testing.T) {
	// The sibling of TestFlushAllCostLinearInCommSize: in sparse mode the
	// FlushAll charge is proportional to the peers the epoch touched, not to
	// the communicator size — the foMPI-style scalable synchronization the
	// default mode's Figure 4 pathology motivates.
	flushTime := func(n, k int) int64 {
		var dt int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), sp()))
			c := e.CommWorld()
			win, err := WinAllocate(c, 64)
			if err != nil {
				return err
			}
			if err := win.LockAll(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if p.ID() == 0 {
				for i := 1; i <= k; i++ {
					if err := win.Put([]byte{1}, i, 0); err != nil {
						return err
					}
				}
				// Outlive every remote completion so the measured FlushAll is
				// pure charging, with no data-dependent wait component.
				p.Advance(100_000_000)
				t0 := p.Now()
				if err := win.FlushAll(); err != nil {
					return err
				}
				dt = p.Now() - t0
			}
			return c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	costs := sp().MPI
	const k = 3
	want := int64(k) * (costs.FlushScanNS + costs.FlushNS)
	t8, t128 := flushTime(8, k), flushTime(128, k)
	if t8 != want || t128 != want {
		t.Errorf("sparse FlushAll over %d dirty peers = %d, %d ns (P=8, P=128); want exactly %d in both — cost must not scale with comm size", k, t8, t128, want)
	}
	if clean := flushTime(128, 0); clean != 0 {
		t.Errorf("sparse FlushAll of an untouched epoch cost %d ns, want 0", clean)
	}
}

func TestSparseLockAllConstantCost(t *testing.T) {
	// Default-mode LockAll charges the per-rank acquisition scan; sparse
	// mode defers acquisition to first use and opens the epoch in O(1).
	openTime := func(pf *fabric.Params, n int) int64 {
		var dt int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), pf))
			c := e.CommWorld()
			win, err := WinAllocate(c, 64)
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				t0 := p.Now()
				if err := win.LockAll(); err != nil {
					return err
				}
				dt = p.Now() - t0
			} else if err := win.LockAll(); err != nil {
				return err
			}
			return c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	scan := tp().MPI.FlushScanNS
	if got := openTime(tp(), 64); got != 64*scan {
		t.Errorf("default LockAll at P=64 cost %d ns, want %d (per-rank scan)", got, 64*scan)
	}
	if got := openTime(sp(), 64); got != scan {
		t.Errorf("sparse LockAll at P=64 cost %d ns, want %d (constant)", got, scan)
	}
}

func TestOnDemandFootprintFlatInWorldSize(t *testing.T) {
	// Default mode preallocates eager slots and peer state for every rank at
	// Init (footprint linear in P, Figure 1); sparse mode allocates per-peer
	// state at first contact, so an image's footprint tracks how many peers
	// it actually messaged.
	costs := tp().MPI
	perPeer := int64(costs.EagerSlotsPerPeer*costs.EagerSlotBytes + costs.PeerStateBytes)
	foot := func(n, touch int) int64 {
		var got int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), sp()))
			c := e.CommWorld()
			win, err := WinAllocate(c, 64)
			if err != nil {
				return err
			}
			if err := win.LockAll(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if p.ID() == 0 {
				base := e.MemoryFootprint()
				// Peers the dissemination barrier's power-of-two pattern has
				// not already connected from rank 0.
				for _, i := range []int{3, 5, 6}[:touch] {
					if err := win.Put([]byte{1}, i, 0); err != nil {
						return err
					}
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				got = e.MemoryFootprint() - base
			}
			return c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	const touch = 3
	d8, d256 := foot(8, touch), foot(256, touch)
	if d8 != touch*perPeer || d256 != touch*perPeer {
		t.Errorf("on-demand footprint delta after touching %d peers = %d, %d bytes (P=8, P=256); want exactly %d in both", touch, d8, d256, touch*perPeer)
	}
}

func TestSparseInitFootprintExcludesPeerPools(t *testing.T) {
	flatAt := func(pf *fabric.Params, n int) int64 {
		var got int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), pf))
			if p.ID() == 0 {
				got = e.MemoryFootprint()
			}
			return e.CommWorld().Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	costs := tp().MPI
	perPeer := int64(costs.EagerSlotsPerPeer*costs.EagerSlotBytes + costs.PeerStateBytes)
	if got := flatAt(tp(), 64); got != costs.BaseFootprint+64*perPeer {
		t.Errorf("default Init footprint at P=64 = %d, want %d", got, costs.BaseFootprint+64*perPeer)
	}
	if got := flatAt(sp(), 64); got != costs.BaseFootprint {
		t.Errorf("sparse Init footprint at P=64 = %d, want the base %d (no preallocated peer pools)", got, costs.BaseFootprint)
	}
	if f64, f1024 := flatAt(sp(), 64), flatAt(sp(), 1024); f64 != f1024 {
		t.Errorf("sparse Init footprint grew with world size: %d (P=64) vs %d (P=1024)", f64, f1024)
	}
}
