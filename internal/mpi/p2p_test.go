package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

// tp returns small test fabric parameters.
func tp() *fabric.Params {
	return &fabric.Params{
		Name:           "test",
		LatencyNS:      1000,
		GapPerByteNS:   0.5,
		SendOverheadNS: 100,
		RecvOverheadNS: 100,
		EagerThreshold: 1024,
		FlopNS:         1,
		MemNS:          0.5,
		MPI: fabric.MPICosts{
			MatchNS: 50, PutNS: 300, GetNS: 300, AtomicNS: 400,
			FlushNS: 200, FlushScanNS: 10, WinSetupNS: 100,
			EagerSlotsPerPeer: 2, EagerSlotBytes: 1024, PeerStateBytes: 64,
			BaseFootprint: 1 << 20,
		},
		GASNet: fabric.GASNetCosts{PutNS: 100, GetNS: 100, AMNS: 80, PollNS: 20},
	}
}

// runMPI executes fn on n images with MPI initialized.
func runMPI(t *testing.T, n int, fn func(*Env) error) {
	t.Helper()
	w := sim.NewWorld(n)
	err := w.Run(func(p *sim.Proc) error {
		net := fabric.AttachNet(p.World(), tp())
		return fn(Init(p, net))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBlocking(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if c.Rank() == 0 {
			return c.Send([]byte("payload"), 1, 42)
		}
		buf := make([]byte, 16)
		st, err := c.Recv(buf, 0, 42)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 42 || st.Count != 7 {
			return fmt.Errorf("status %+v, want {0 42 7}", st)
		}
		if string(buf[:st.Count]) != "payload" {
			return fmt.Errorf("payload %q", buf[:st.Count])
		}
		return nil
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		const k = 8
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < k; i++ {
				r, err := c.Isend([]byte{byte(i)}, 1, i)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			return Waitall(reqs)
		}
		bufs := make([][]byte, k)
		var reqs []*Request
		for i := 0; i < k; i++ {
			bufs[i] = make([]byte, 1)
			// Post out of order: matching is by tag.
			r, err := c.Irecv(bufs[i], 0, k-1-i)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if err := Waitall(reqs); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if bufs[i][0] != byte(k-1-i) {
				return fmt.Errorf("recv %d got %d, want %d", i, bufs[i][0], k-1-i)
			}
		}
		return nil
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		if c.Rank() != 0 {
			return c.Send([]byte{byte(c.Rank())}, 0, 10+c.Rank())
		}
		seen := make(map[int]bool)
		for i := 0; i < 3; i++ {
			buf := make([]byte, 1)
			st, err := c.Recv(buf, AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(buf[0]) != st.Source || st.Tag != 10+st.Source {
				return fmt.Errorf("inconsistent status %+v payload %d", st, buf[0])
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("saw senders %v, want 3 distinct", seen)
		}
		return nil
	})
}

func TestNonOvertakingMatchedInOrder(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.Send([]byte{byte(i)}, 1, 7); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			buf := make([]byte, 1)
			if _, err := c.Recv(buf, 0, 7); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("message %d overtaken by %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestTruncationError(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if c.Rank() == 0 {
			return c.Send(make([]byte, 100), 1, 0)
		}
		buf := make([]byte, 10)
		st, err := c.Recv(buf, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			return fmt.Errorf("want truncation error, got %v", err)
		}
		if st.Count != 10 {
			return fmt.Errorf("truncated count %d, want 10", st.Count)
		}
		return nil
	})
}

func TestRendezvousLargeMessage(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		big := make([]byte, 64<<10) // far above eager threshold
		if c.Rank() == 0 {
			for i := range big {
				big[i] = byte(i * 31)
			}
			return c.Send(big, 1, 1)
		}
		buf := make([]byte, len(big))
		if _, err := c.Recv(buf, 0, 1); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*31) {
				return fmt.Errorf("corruption at %d", i)
			}
		}
		return nil
	})
}

// TestSendrecvRing: every rank posts its receive before its blocking send,
// so a ring exchange cannot deadlock.
func TestSendrecvRing(t *testing.T) {
	runMPI(t, 5, func(e *Env) error {
		c := e.CommWorld()
		n := c.Size()
		right, left := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		r, err := c.Irecv(in, left, 3)
		if err != nil {
			return err
		}
		if err := c.Send(out, right, 3); err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		if in[0] != byte(left) {
			return fmt.Errorf("ring exchange got %d, want %d", in[0], left)
		}
		return nil
	})
}

func TestProbeThenRecv(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if c.Rank() == 0 {
			return c.Send(make([]byte, 33), 1, 9)
		}
		// The blocking-probe loop of an active-message poller: advance to a
		// queued arrival still in the virtual future, else park.
		var st Status
		var perr error
		if err := e.ep.Block(e.p, "probe", func() (bool, int64, bool) {
			ok, s, earliest, has, err := c.IprobeAny()
			st, perr = s, err
			return ok || err != nil, earliest, has
		}); err != nil {
			return err
		}
		if perr != nil {
			return perr
		}
		if st.Count != 33 || st.Source != 0 || st.Tag != 9 {
			return fmt.Errorf("probe status %+v", st)
		}
		buf := make([]byte, st.Count)
		if _, err := c.Recv(buf, st.Source, st.Tag); err != nil {
			return err
		}
		ok, _, _, has, err := c.IprobeAny()
		if err != nil {
			return err
		}
		if ok || has {
			return fmt.Errorf("IprobeAny found a message after the queue drained")
		}
		return nil
	})
}

func TestTestNonBlocking(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if c.Rank() == 0 {
			// Give rank 1 time to spin on Test with nothing pending.
			buf := make([]byte, 1)
			if _, err := c.Recv(buf, 1, 2); err != nil { // ready signal
				return err
			}
			return c.Send([]byte{7}, 1, 1)
		}
		buf := make([]byte, 1)
		r, err := c.Irecv(buf, 0, 1)
		if err != nil {
			return err
		}
		if done, _, _ := r.Test(); done {
			return fmt.Errorf("Test reported done before send")
		}
		if err := c.Send([]byte{1}, 0, 2); err != nil {
			return err
		}
		for {
			done, st, err := r.Test()
			if err != nil {
				return err
			}
			if done {
				if st.Count != 1 || buf[0] != 7 {
					return fmt.Errorf("bad completion st=%+v buf=%v", st, buf)
				}
				return nil
			}
		}
	})
}

func TestSendToProcNull(t *testing.T) {
	runMPI(t, 1, func(e *Env) error {
		c := e.CommWorld()
		r, err := c.Isend([]byte{1}, ProcNull, 0)
		if err != nil {
			return err
		}
		if _, err := r.Wait(); err != nil {
			return err
		}
		return nil
	})
}

func TestInvalidArgsErrors(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if _, err := c.Isend(nil, 5, 0); err == nil {
			return fmt.Errorf("send to rank 5 in 2-rank comm should fail")
		}
		if _, err := c.Isend(nil, 0, -3); err == nil {
			return fmt.Errorf("negative tag should fail")
		}
		if _, err := c.Irecv(nil, 9, 0); err == nil {
			return fmt.Errorf("recv from invalid rank should fail")
		}
		if _, err := c.Irecv(nil, ProcNull, 0); err == nil {
			return fmt.Errorf("recv from ProcNull should fail")
		}
		return nil
	})
}

func TestVirtualTimeMonotoneThroughTraffic(t *testing.T) {
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		last := e.Proc().Now()
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			now := e.Proc().Now()
			if now < last {
				return fmt.Errorf("clock went backwards: %v -> %v", last, now)
			}
			if now == last {
				return fmt.Errorf("barrier charged no time")
			}
			last = now
		}
		return nil
	})
}

func TestCommDupIsolation(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := c.Send([]byte{1}, 1, 5); err != nil {
				return err
			}
			return d.Send([]byte{2}, 1, 5)
		}
		// Same tag and source: only the context distinguishes them.
		bd := make([]byte, 1)
		if _, err := d.Recv(bd, 0, 5); err != nil {
			return err
		}
		bc := make([]byte, 1)
		if _, err := c.Recv(bc, 0, 5); err != nil {
			return err
		}
		if bc[0] != 1 || bd[0] != 2 {
			return fmt.Errorf("context leakage: comm=%d dup=%d", bc[0], bd[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	groups := make([]*group, 6)
	runMPI(t, 6, func(e *Env) error {
		c := e.CommWorld()
		color := c.Rank() % 2
		// Reverse key order inside each color group.
		sub, err := c.Split(color, -c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("split size %d, want 3", sub.Size())
		}
		groups[c.Rank()] = sub.group
		dup, err := sub.Dup()
		if err != nil {
			return err
		}
		if dup.group != sub.group {
			return fmt.Errorf("world rank %d: Dup copied its parent's group", c.Rank())
		}
		// World ranks in the group sorted by descending world rank.
		wantRank := map[int]int{0: 2, 2: 1, 4: 0, 1: 2, 3: 1, 5: 0}[c.Rank()]
		if sub.Rank() != wantRank {
			return fmt.Errorf("world rank %d got sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Communication stays inside the split comm.
		sum := []int64{int64(c.Rank())}
		out := make([]int64, 1)
		if err := sub.Allreduce(I64Bytes(sum), I64Bytes(out), Int64, OpSum); err != nil {
			return err
		}
		want := int64(0 + 2 + 4)
		if color == 1 {
			want = 1 + 3 + 5
		}
		if out[0] != want {
			return fmt.Errorf("split allreduce got %d, want %d", out[0], want)
		}
		return nil
	})
	// Members of one new communicator share one rank table; the two
	// disjoint groups born of the same Split do not.
	for r := 2; r < 6; r++ {
		if groups[r] != groups[r%2] {
			t.Errorf("world ranks %d and %d hold different tables for one communicator", r%2, r)
		}
	}
	if groups[0] == groups[1] {
		t.Error("the two colors of one Split share a rank table")
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("undefined color should yield nil comm")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("split size %d, want 3", sub.Size())
		}
		return sub.Barrier()
	})
}

func TestFinalizePanics(t *testing.T) {
	w := sim.NewWorld(1)
	err := w.Run(func(p *sim.Proc) error {
		e := Init(p, fabric.AttachNet(p.World(), tp()))
		e.Finalize()
		defer func() { recover() }()
		_ = e.CommWorld().Barrier()
		return fmt.Errorf("communication after Finalize did not panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: an echo round trip through a peer returns exactly the payload,
// for arbitrary payloads and tags.
func TestEchoProperty(t *testing.T) {
	f := func(payload []byte, tag16 uint16) bool {
		tag := int(tag16)
		var ok bool
		w := sim.NewWorld(2)
		err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			c := e.CommWorld()
			if c.Rank() == 0 {
				if err := c.Send(payload, 1, tag); err != nil {
					return err
				}
				back := make([]byte, len(payload))
				if _, err := c.Recv(back, 1, tag); err != nil {
					return err
				}
				ok = bytes.Equal(back, payload)
				return nil
			}
			buf := make([]byte, len(payload))
			st, err := c.Recv(buf, 0, tag)
			if err != nil {
				return err
			}
			return c.Send(buf[:st.Count], 0, tag)
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryFootprintGrowsWithJobSize(t *testing.T) {
	foot := func(n int) int64 {
		var f int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			if p.ID() == 0 {
				f = e.MemoryFootprint()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f4, f64 := foot(4), foot(64)
	if f64 <= f4 {
		t.Errorf("footprint should grow with job size: %d (4 ranks) vs %d (64 ranks)", f4, f64)
	}
}
