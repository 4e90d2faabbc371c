package mpi

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

func TestWinAllocatePutGetRoundTrip(t *testing.T) {
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 256)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		// Each rank writes its signature into the next rank's window.
		next := (c.Rank() + 1) % c.Size()
		sig := []byte{byte(c.Rank()), byte(c.Rank() + 100)}
		if err := w.Put(sig, next, 10); err != nil {
			return err
		}
		if err := w.Flush(next); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Local window now holds the previous rank's signature.
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		local := w.Base()
		if local[10] != byte(prev) || local[11] != byte(prev+100) {
			return fmt.Errorf("rank %d window has %v, want prev=%d", c.Rank(), local[10:12], prev)
		}
		// And Get reads a remote window correctly.
		got := make([]byte, 2)
		if err := w.Get(got, next, 10); err != nil {
			return err
		}
		if err := w.Flush(next); err != nil {
			return err
		}
		if got[0] != byte(c.Rank()) {
			return fmt.Errorf("get from %d returned %v", next, got)
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		return w.Free()
	})
}

func TestRMAOutsideEpochFails(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 64)
		if err != nil {
			return err
		}
		if err := w.Put([]byte{1}, 0, 0); err == nil || !strings.Contains(err.Error(), "epoch") {
			return fmt.Errorf("Put outside epoch: got %v, want epoch error", err)
		}
		if err := w.FlushAll(); err == nil {
			return fmt.Errorf("FlushAll outside epoch should fail")
		}
		return c.Barrier()
	})
}

func TestEpochMisuseErrors(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		if err := w.UnlockAll(); err == nil {
			return fmt.Errorf("UnlockAll without LockAll should fail")
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := w.LockAll(); err == nil {
			return fmt.Errorf("nested LockAll should fail")
		}
		if err := w.Put([]byte{1}, 0, 100); err == nil {
			return fmt.Errorf("out-of-range Put should fail")
		}
		if err := w.Put([]byte{1}, 5, 0); err == nil {
			return fmt.Errorf("invalid target rank should fail")
		}
		return c.Barrier()
	})
}

func TestAccumulateAtomicUnderContention(t *testing.T) {
	const per = 200
	runMPI(t, 8, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		one := []int64{1}
		for i := 0; i < per; i++ {
			if err := w.Accumulate(I64Bytes(one), 0, 0, Int64, OpSum); err != nil {
				return err
			}
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := BytesI64(w.Base())[0]
			if got != int64(per*c.Size()) {
				return fmt.Errorf("accumulate lost updates: %d, want %d", got, per*c.Size())
			}
		}
		return nil
	})
}

func TestFetchAndOpTicketCounter(t *testing.T) {
	runMPI(t, 6, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		one := []int64{1}
		old := make([]int64, 1)
		if err := w.FetchAndOp(I64Bytes(one), I64Bytes(old), 0, 0, Int64, OpSum); err != nil {
			return err
		}
		ticket := old[0]
		if ticket < 0 || ticket >= int64(c.Size()) {
			return fmt.Errorf("ticket %d out of range", ticket)
		}
		// Collect every ticket: all distinct is the atomicity witness.
		all := make([]int64, c.Size())
		if err := c.Allgather(I64Bytes([]int64{ticket}), I64Bytes(all), Int64); err != nil {
			return err
		}
		if c.Rank() == 0 {
			seen := map[int64]bool{}
			for _, v := range all {
				if seen[v] {
					return fmt.Errorf("duplicate ticket %d in %v", v, all)
				}
				seen[v] = true
			}
		}
		return nil
	})
}

func TestFetchAndOpNoOpReadsWithoutModifying(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		BytesI64(w.Base())[0] = int64(77 + c.Rank())
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		got := make([]int64, 1)
		peer := 1 - c.Rank()
		if err := w.FetchAndOp(nil, I64Bytes(got), peer, 0, Int64, OpNoOp); err != nil {
			return err
		}
		if got[0] != int64(77+peer) {
			return fmt.Errorf("no-op fetch got %d, want %d", got[0], 77+peer)
		}
		return c.Barrier()
	})
}

func TestCompareAndSwapMutualExclusion(t *testing.T) {
	runMPI(t, 8, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		// Everyone tries to claim slot 0 on rank 0 with CAS(0 -> rank+1).
		mine := []int64{int64(c.Rank() + 1)}
		zero := []int64{0}
		old := make([]int64, 1)
		if err := w.CompareAndSwap(I64Bytes(mine), I64Bytes(zero), I64Bytes(old), 0, 0, Int64); err != nil {
			return err
		}
		won := int32(0)
		if old[0] == 0 {
			won = 1
		}
		total := make([]int32, 1)
		if err := c.Allreduce(I32Bytes([]int32{won}), I32Bytes(total), Int32, OpSum); err != nil {
			return err
		}
		if total[0] != 1 {
			return fmt.Errorf("%d winners, want exactly 1", total[0])
		}
		return nil
	})
}

func TestGetAccumulateSwapAndFetch(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 16)
		if err != nil {
			return err
		}
		BytesI64(w.Base())[0] = int64(c.Rank() * 1000)
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			in := []int64{555}
			out := make([]int64, 1)
			// OpReplace: atomic swap.
			if err := w.GetAccumulate(I64Bytes(in), I64Bytes(out), 0, 0, Int64, OpReplace); err != nil {
				return err
			}
			if out[0] != 0 {
				return fmt.Errorf("swap fetched %d, want 0", out[0])
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 && BytesI64(w.Base())[0] != 555 {
			return fmt.Errorf("replace did not land: %d", BytesI64(w.Base())[0])
		}
		return nil
	})
}

func TestFlushAllCostLinearInCommSize(t *testing.T) {
	// The MPICH FlushAll behaviour: cost scales with communicator size even
	// with a single outstanding op. This is the mechanism behind Figure 4.
	flushTime := func(n int) int64 {
		var dt int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
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
				if err := win.Put([]byte{1}, n-1, 0); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil { // drain the put
					return err
				}
				t0 := p.Now()
				if err := win.FlushAll(); err != nil { // pure per-rank scan
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
	t8, t128 := flushTime(8), flushTime(128)
	if t128 <= t8 {
		t.Fatalf("FlushAll cost must grow with comm size: %d ns (P=8) vs %d ns (P=128)", t8, t128)
	}
	scan := tp().MPI.FlushScanNS
	if t8 != 8*scan || t128 != 128*scan {
		t.Errorf("FlushAll scan costs = %d, %d ns; want exactly %d and %d (linear per-rank scan)",
			t8, t128, 8*scan, 128*scan)
	}
}

func TestRflushOverlapsCompletion(t *testing.T) {
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := w.Put(make([]byte, 32), 1, 0); err != nil {
				return err
			}
			r, err := w.RflushAll()
			if err != nil {
				return err
			}
			issued := e.Proc().Now()
			e.Proc().Advance(500_000) // overlapped computation
			if _, err := r.Wait(); err != nil {
				return err
			}
			// The flush latency was hidden behind computation: waiting must
			// not add the full flush latency again (a small poll charge is
			// fine).
			if over := e.Proc().Now() - (issued + 500_000); over > 5_000 {
				return fmt.Errorf("RflushAll wait added %d ns beyond compute", over)
			}
		}
		return c.Barrier()
	})
}

func TestRputRgetRequests(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 64)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			r1, err := w.Rput([]byte{9, 8, 7}, 1, 0)
			if err != nil {
				return err
			}
			if _, err = r1.Wait(); err != nil { // local completion
				return err
			}
			if err = w.Flush(1); err != nil { // remote completion
				return err
			}
			got := make([]byte, 3)
			r2, err := w.Rget(got, 1, 0)
			if err != nil {
				return err
			}
			if _, err := r2.Wait(); err != nil {
				return err
			}
			if got[0] != 9 || got[2] != 7 {
				return fmt.Errorf("rget returned %v", got)
			}
		}
		return c.Barrier()
	})
}

func TestWindowFootprintAccounting(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		before := e.MemoryFootprint()
		w, err := WinAllocate(c, 4096)
		if err != nil {
			return err
		}
		if got := e.MemoryFootprint() - before; got != 4096 {
			return fmt.Errorf("window footprint delta %d, want 4096", got)
		}
		if err := w.Free(); err != nil {
			return err
		}
		if got := e.MemoryFootprint(); got != before {
			return fmt.Errorf("footprint %d after free, want %d", got, before)
		}
		if err := w.Free(); err == nil {
			return fmt.Errorf("double free should fail")
		}
		return nil
	})
}

func TestUseAfterFree(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		w, err := WinAllocate(c, 8)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Put([]byte{1}, 0, 0); err == nil {
			return fmt.Errorf("Put on freed window should fail")
		}
		return nil
	})
}

// Property: put-then-get round trips arbitrary data at arbitrary valid
// offsets between random pairs of ranks.
func TestPutGetRoundTripProperty(t *testing.T) {
	const winSize = 512
	f := func(data []byte, off uint16, target uint8) bool {
		if len(data) == 0 || len(data) > winSize {
			return true
		}
		disp := int(off) % (winSize - len(data) + 1)
		ok := true
		w := sim.NewWorld(3)
		tgt := int(target) % 3
		err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			c := e.CommWorld()
			win, err := WinAllocate(c, winSize)
			if err != nil {
				return err
			}
			if err := win.LockAll(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := win.Put(data, tgt, disp); err != nil {
					return err
				}
				if err := win.Flush(tgt); err != nil {
					return err
				}
				back := make([]byte, len(data))
				if err := win.Get(back, tgt, disp); err != nil {
					return err
				}
				if err := win.Flush(tgt); err != nil {
					return err
				}
				for i := range back {
					if back[i] != data[i] {
						ok = false
					}
				}
			}
			return c.Barrier()
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
