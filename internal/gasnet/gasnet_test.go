package gasnet

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

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
		GASNet: fabric.GASNetCosts{
			PutNS: 100, GetNS: 100, AMNS: 80, PollNS: 20,
			PeerBytes: 256, BaseFootprint: 1 << 16,
		},
	}
}

// runGN executes fn on n images; fn attaches its own endpoint so each test
// can pass its handler table to Attach (as real GASNet clients must).
func runGN(t *testing.T, n int, fn func(p *sim.Proc, net *fabric.Net) error) {
	t.Helper()
	w := sim.NewWorld(n)
	err := w.Run(func(p *sim.Proc) error {
		return fn(p, fabric.AttachNet(p.World(), tp()))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAMShortRequestReply(t *testing.T) {
	const hPing, hPong HandlerID = 128, 129
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		var gotPong atomic.Uint64
		var pinged atomic.Bool
		e, err := Attach(p, net, 0,
			HandlerEntry{hPing, func(tk *Token, args []uint64, _ []byte) {
				pinged.Store(true)
				if err := tk.ReplyShort(hPong, args[0]*2); err != nil {
					panic(err)
				}
			}},
			HandlerEntry{hPong, func(_ *Token, args []uint64, _ []byte) {
				gotPong.Store(args[0])
			}},
		)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			if err := e.AMRequestShort(1, hPing, 21); err != nil {
				return err
			}
			e.PollUntil(func() bool { return gotPong.Load() != 0 })
			if gotPong.Load() != 42 {
				return fmt.Errorf("pong carried %d, want 42", gotPong.Load())
			}
		} else {
			e.PollUntil(func() bool { return pinged.Load() })
		}
		e.Barrier()
		return nil
	})
}

func TestAMMediumPayload(t *testing.T) {
	const h HandlerID = 130
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		var got atomic.Pointer[[]byte]
		e, err := Attach(p, net, 0, HandlerEntry{h, func(_ *Token, _ []uint64, payload []byte) {
			cp := append([]byte(nil), payload...)
			got.Store(&cp)
		}})
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			payload := []byte("medium-payload-data")
			if err := e.AMRequestMedium(1, h, payload, 7); err != nil {
				return err
			}
		} else {
			e.PollUntil(func() bool { return got.Load() != nil })
			if string(*got.Load()) != "medium-payload-data" {
				return fmt.Errorf("payload %q", *got.Load())
			}
		}
		e.Barrier()
		return nil
	})
}

func TestAMValidation(t *testing.T) {
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 16, HandlerEntry{128, func(*Token, []uint64, []byte) {}})
		if err != nil {
			return err
		}
		if err := e.AMRequestShort(5, 128); err == nil {
			return fmt.Errorf("bad destination accepted")
		}
		if err := e.AMRequestShort(1, 3); err == nil {
			return fmt.Errorf("system handler id accepted")
		}
		args := make([]uint64, MaxArgs+1)
		if err := e.AMRequestShort(1, 128, args...); err == nil {
			return fmt.Errorf("too many args accepted")
		}
		if err := e.AMRequestMedium(1, 128, make([]byte, MaxMedium+1)); err == nil {
			return fmt.Errorf("oversized medium accepted")
		}
		if err := e.RegisterHandler(1, nil); err == nil {
			return fmt.Errorf("system-range registration accepted")
		}
		if err := e.RegisterHandler(128, func(*Token, []uint64, []byte) {}); err == nil {
			return fmt.Errorf("double registration accepted")
		}
		e.Barrier()
		return nil
	})
}

func TestNoProgressWithoutPoll(t *testing.T) {
	const h, hReady HandlerID = 132, 133
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		var ran, ready atomic.Bool
		e, err := Attach(p, net, 0,
			HandlerEntry{h, func(*Token, []uint64, []byte) { ran.Store(true) }},
			HandlerEntry{hReady, func(*Token, []uint64, []byte) { ready.Store(true) }})
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			// Wait until image 1 is definitely past its attach barrier (whose
			// internal polling would dispatch our AM prematurely).
			e.PollUntil(func() bool { return ready.Load() })
			if err := e.AMRequestShort(1, h); err != nil {
				return err
			}
			e.Barrier()
			return nil
		}
		if err := e.AMRequestShort(0, hReady); err != nil {
			return err
		}
		// Wait until the message is definitely queued, without polling AMs.
		seq := e.fep.Seq()
		for e.fep.QueueLen() == 0 {
			seq = e.fep.WaitActivity(seq)
		}
		if ran.Load() {
			return fmt.Errorf("handler ran without a poll: GASNet progress must be explicit")
		}
		// The message is queued but may still be in virtual flight; idle
		// polls charge time, so polling converges on the arrival.
		total := 0
		for total == 0 {
			total += e.Poll()
		}
		if total != 1 {
			return fmt.Errorf("Poll dispatched %d AMs, want 1", total)
		}
		if !ran.Load() {
			return fmt.Errorf("handler did not run after Poll")
		}
		e.Barrier()
		return nil
	})
}

func TestPutGetBlocking(t *testing.T) {
	runGN(t, 3, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 128)
		if err != nil {
			return err
		}
		me := p.ID()
		next := (me + 1) % 3
		data := []byte{byte(me), byte(me + 1), byte(me + 2)}
		if err := e.PutRegistered(next, e.seg(next), 8, data); err != nil {
			return err
		}
		e.Barrier()
		prev := (me + 2) % 3
		if e.seg(p.ID())[8] != byte(prev) {
			return fmt.Errorf("segment got %d, want %d", e.seg(p.ID())[8], prev)
		}
		into := make([]byte, 3)
		if err := e.GetRegistered(next, e.seg(next), 8, into); err != nil {
			return err
		}
		if into[0] != byte(me) {
			return fmt.Errorf("get returned %v", into)
		}
		e.Barrier()
		return nil
	})
}

func TestPutNBAndSync(t *testing.T) {
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 64)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			h, err := e.PutNB(1, 0, []byte{1, 2, 3, 4})
			if err != nil {
				return err
			}
			e.SyncNB(h)
			if p.Now() < h.localT {
				return fmt.Errorf("SyncNB returned at %d, before local completion at %d", p.Now(), h.localT)
			}
		}
		e.Barrier()
		if p.ID() == 1 && e.seg(p.ID())[3] != 4 {
			return fmt.Errorf("segment %v", e.seg(p.ID())[:4])
		}
		return nil
	})
}

func TestNBITrackingAndSyncAll(t *testing.T) {
	runGN(t, 4, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 256)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			for t := 1; t < 4; t++ {
				if err := e.PutRegisteredNBI(t, e.seg(t), 0, []byte{byte(t)}); err != nil {
					return err
				}
			}
			if e.nbiCount != 3 {
				return fmt.Errorf("outstanding %d, want 3", e.nbiCount)
			}
			before := p.Now()
			e.SyncNBIAll()
			if e.nbiCount != 0 {
				return fmt.Errorf("outstanding %d after sync", e.nbiCount)
			}
			if p.Now() <= before {
				return fmt.Errorf("SyncNBIAll charged no completion time")
			}
		}
		e.Barrier()
		if id := p.ID(); id != 0 && e.seg(p.ID())[0] != byte(id) {
			return fmt.Errorf("image %d segment byte %d", id, e.seg(p.ID())[0])
		}
		return nil
	})
}

func TestSyncNBIAllCostIndependentOfJobSize(t *testing.T) {
	// GASNet syncs implicit handles with O(1) counters: the fence cost must
	// not scale with N, unlike MPI_WIN_FLUSH_ALL. One put outstanding.
	fence := func(n int) int64 {
		var dt int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e, err := Attach(p, fabric.AttachNet(p.World(), tp()), 64)
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				if err := e.PutRegisteredNBI(n-1, e.seg(n-1), 0, []byte{1}); err != nil {
					return err
				}
				t0 := p.Now()
				e.SyncNBIAll()
				dt = p.Now() - t0
			}
			e.Barrier()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	t4, t64 := fence(4), fence(64)
	if t64 != t4 {
		t.Errorf("NBI fence cost scales with job size: %d ns (P=4) vs %d ns (P=64)", t4, t64)
	}
}

func TestSegmentRangeValidation(t *testing.T) {
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 32)
		if err != nil {
			return err
		}
		if _, err := e.PutNB(1, 30, []byte{1, 2, 3}); err == nil {
			return fmt.Errorf("put past segment end accepted")
		}
		if _, err := e.GetNB(1, -1, make([]byte, 4)); err == nil {
			return fmt.Errorf("negative offset accepted")
		}
		if _, err := e.PutNB(7, 0, []byte{1}); err == nil {
			return fmt.Errorf("bad rank accepted")
		}
		e.Barrier()
		return nil
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	runGN(t, 8, func(p *sim.Proc, net *fabric.Net) error {
		e, err := Attach(p, net, 0)
		if err != nil {
			return err
		}
		if p.ID() == 5 {
			p.Advance(3_000_000)
		}
		e.Barrier()
		if p.Now() < 3_000_000 {
			return fmt.Errorf("image %d left barrier at %d ns, before image 5 entered", p.ID(), p.Now())
		}
		return nil
	})
}

func TestBarrierProgressesAMs(t *testing.T) {
	// An AM arriving while the target sits in a barrier must still be
	// dispatched (conduits poll inside blocking calls).
	const h HandlerID = 140
	runGN(t, 2, func(p *sim.Proc, net *fabric.Net) error {
		var ran atomic.Bool
		e, err := Attach(p, net, 0, HandlerEntry{h, func(*Token, []uint64, []byte) { ran.Store(true) }})
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			if err := e.AMRequestShort(1, h); err != nil {
				return err
			}
		}
		e.Barrier()
		if p.ID() == 1 && !ran.Load() {
			// The AM may still be queued if it raced past the barrier
			// rounds; one poll must find it.
			e.Poll()
			if !ran.Load() {
				return fmt.Errorf("AM not dispatched during or after barrier")
			}
		}
		return nil
	})
}

func TestSRQPenaltyChargesReceive(t *testing.T) {
	// With SRQ enabled and the job at/over threshold, AM receive costs rise.
	recvCost := func(srq fabric.SRQModel) int64 {
		params := tp()
		params.GASNet.SRQ = srq
		var dt int64
		w := sim.NewWorld(4)
		if err := w.Run(func(p *sim.Proc) error {
			const h, hReady HandlerID = 128, 129
			var n atomic.Int32
			var ready atomic.Bool
			e, err := Attach(p, fabric.AttachNet(p.World(), params), 0,
				HandlerEntry{h, func(*Token, []uint64, []byte) { n.Add(1) }},
				HandlerEntry{hReady, func(*Token, []uint64, []byte) { ready.Store(true) }})
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				e.PollUntil(func() bool { return ready.Load() })
				if err := e.AMRequestMedium(1, h, make([]byte, 4096)); err != nil {
					return err
				}
			}
			if p.ID() == 1 {
				if err := e.AMRequestShort(0, hReady); err != nil {
					return err
				}
				t0 := p.Now()
				e.PollUntil(func() bool { return n.Load() == 1 })
				dt = p.Now() - t0
			}
			e.Barrier()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	plain := recvCost(fabric.SRQModel{})
	srq := recvCost(fabric.SRQModel{Enabled: true, Threshold: 4, Factor: 2.5})
	if srq <= plain {
		t.Errorf("SRQ receive cost %d ns not above baseline %d ns", srq, plain)
	}
}

func TestMemoryFootprint(t *testing.T) {
	foot := func(n, seg int) int64 {
		var f int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e, err := Attach(p, fabric.AttachNet(p.World(), tp()), seg)
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				f = e.MemoryFootprint()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	if f4, f64 := foot(4, 0), foot(64, 0); f64 <= f4 {
		t.Errorf("footprint should grow with job size: %d vs %d", f4, f64)
	}
	if fs, f0 := foot(4, 1<<20), foot(4, 0); fs-f0 != 1<<20 {
		t.Errorf("segment bytes not accounted: delta %d", fs-f0)
	}
}

// TestSparseOnDemandConnections: in scalable-sync mode Attach charges no
// per-peer rkey table — the footprint is base plus segment, independent of
// world size — and each peer's connection state is charged at first
// contact, so an image pays for the peers it talks to, not for the job.
func TestSparseOnDemandConnections(t *testing.T) {
	sparse := fabric.SparseVariant(tp())
	const segSize = 128
	const touch = 2
	foot := func(n int) (base, after int64) {
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e, err := Attach(p, fabric.AttachNet(p.World(), sparse), segSize)
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				base = e.MemoryFootprint()
				for i := 1; i <= touch; i++ {
					if err := e.PutRegistered(i, e.seg(i), 0, []byte{byte(i)}); err != nil {
						return err
					}
				}
				// Second contact with a connected peer charges nothing.
				if err := e.PutRegistered(1, e.seg(1), 4, []byte{9}); err != nil {
					return err
				}
				after = e.MemoryFootprint()
			}
			e.Barrier()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return base, after
	}
	costs := tp().GASNet
	b4, a4 := foot(4)
	b64, a64 := foot(64)
	if want := costs.BaseFootprint + segSize; b4 != want || b64 != want {
		t.Errorf("sparse attach footprint = %d, %d (P=4, P=64); want %d at both — no preallocated peer table", b4, b64, want)
	}
	if d4, d64 := a4-b4, a64-b64; d4 != touch*int64(costs.PeerBytes) || d4 != d64 {
		t.Errorf("on-demand connection deltas = %d, %d bytes (P=4, P=64); want %d at both", d4, d64, touch*int64(costs.PeerBytes))
	}
}

func TestHandlerPanicSurfacesAsImagePanic(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		const h HandlerID = 128
		e, err := Attach(p, fabric.AttachNet(p.World(), tp()), 0,
			HandlerEntry{h, func(*Token, []uint64, []byte) { panic("handler exploded") }})
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			return e.AMRequestShort(1, h)
		}
		seq := e.fep.Seq()
		for e.fep.QueueLen() == 0 {
			seq = e.fep.WaitActivity(seq)
		}
		for e.Poll() == 0 { // poll until the AM's virtual arrival passes
		}
		return nil
	})
	pe, ok := err.(*sim.PanicError)
	if !ok || pe.Image != 1 {
		t.Fatalf("want image-1 panic error, got %v", err)
	}
}

// Property: put/get round trips arbitrary data through arbitrary segment
// offsets.
func TestPutGetRoundTripProperty(t *testing.T) {
	const segSize = 256
	f := func(data []byte, off uint8) bool {
		if len(data) == 0 || len(data) > segSize {
			return true
		}
		o := int(off) % (segSize - len(data) + 1)
		ok := true
		w := sim.NewWorld(2)
		err := w.Run(func(p *sim.Proc) error {
			e, err := Attach(p, fabric.AttachNet(p.World(), tp()), segSize)
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				if err := e.PutRegistered(1, e.seg(1), o, data); err != nil {
					return err
				}
				back := make([]byte, len(data))
				if err := e.GetRegistered(1, e.seg(1), o, back); err != nil {
					return err
				}
				ok = bytes.Equal(back, data)
			}
			e.Barrier()
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
