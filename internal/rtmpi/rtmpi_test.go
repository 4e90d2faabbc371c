package rtmpi

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"cafmpi/internal/core"
	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

func tp() *fabric.Params {
	p := fabric.Fusion
	p.Name = "test"
	return &p
}

// run boots the substrate directly (no core runtime) on n images.
func run(t *testing.T, n int, deliver func(im int) core.DeliverFunc, fn func(*S) error) {
	t.Helper()
	w := sim.NewWorld(n)
	err := w.Run(func(p *sim.Proc) error {
		var d core.DeliverFunc = func(int, uint8, []uint64, []byte) {}
		if deliver != nil {
			d = deliver(p.ID())
		}
		s, err := New(p, fabric.AttachNet(p.World(), tp()), d, Options{})
		if err != nil {
			return err
		}
		return fn(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAMEncodingRoundTripProperty(t *testing.T) {
	f := func(args []uint64, payload []byte) bool {
		if len(args) > 255 {
			args = args[:255]
		}
		var s S // encode/decode scratch state
		buf := s.encodeAM(args, payload)
		gotArgs, gotPayload := s.decodeAM(buf)
		if len(gotArgs) != len(args) {
			return false
		}
		for i := range args {
			if gotArgs[i] != args[i] {
				return false
			}
		}
		return bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAMDeliveryThroughPoll(t *testing.T) {
	type rec struct {
		src     int
		kind    uint8
		args    []uint64
		payload []byte
	}
	got := make([]*rec, 2)
	run(t, 2,
		func(im int) core.DeliverFunc {
			return func(src int, kind uint8, args []uint64, payload []byte) {
				got[im] = &rec{src, kind, append([]uint64(nil), args...), append([]byte(nil), payload...)}
			}
		},
		func(s *S) error {
			me := s.Proc().ID()
			if me == 0 {
				if err := s.AMSend(1, 7, []uint64{11, 22}, []byte("pay")); err != nil {
					return err
				}
				if err := s.ReleaseFence(); err != nil {
					return err
				}
			} else {
				s.PollUntil(func() bool { return got[1] != nil })
				r := got[1]
				if r.src != 0 || r.kind != 7 || r.args[1] != 22 || string(r.payload) != "pay" {
					return fmt.Errorf("AM mangled: %+v", r)
				}
			}
			return s.Barrier(s.WorldTeam())
		})
}

func TestSegmentLifecycleAndFenceWindows(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		seg, err := s.AllocSegment(s.WorldTeam(), 128, 1)
		if err != nil {
			return err
		}
		if len(s.wins) != 1 {
			return fmt.Errorf("window not tracked for FlushAll (%d)", len(s.wins))
		}
		if s.Proc().ID() == 0 {
			if err := s.Put(seg, 1, 3, []byte{9}); err != nil {
				return err
			}
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if s.Proc().ID() == 1 && seg.Local()[3] != 9 {
			return fmt.Errorf("put missing")
		}
		if err := s.FreeSegment(seg); err != nil {
			return err
		}
		if len(s.wins) != 0 {
			return fmt.Errorf("window not untracked after free")
		}
		// ReleaseFence with no windows must be harmless.
		return s.ReleaseFence()
	})
}

func TestDeferredOpsCompleteAtLocalFence(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		seg, err := s.AllocSegment(s.WorldTeam(), 64, 1)
		if err != nil {
			return err
		}
		copy(seg.Local(), []byte{byte(40 + s.Proc().ID())})
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		into := make([]byte, 1)
		peer := 1 - s.Proc().ID()
		if err := s.GetDeferred(seg, peer, 0, into); err != nil {
			return err
		}
		if err := s.LocalFenceScoped(true, true); err != nil {
			return err
		}
		if into[0] != byte(40+peer) {
			return fmt.Errorf("deferred get delivered %d", into[0])
		}
		if len(s.implicitPuts) != 0 || len(s.implicitGets) != 0 {
			return fmt.Errorf("implicit request lists not drained")
		}
		return s.Barrier(s.WorldTeam())
	})
}

func TestCapsAndIdentity(t *testing.T) {
	run(t, 1, nil, func(s *S) error {
		if s.Name() != "mpi" {
			return fmt.Errorf("name %q", s.Name())
		}
		c := s.Caps()
		if !c.PutWithRemoteEventViaAM {
			return fmt.Errorf("caps %+v", c)
		}
		if s.Platform() == nil || s.Env() == nil {
			return fmt.Errorf("accessors nil")
		}
		if _, err := s.MakeTeam([]int{0}, 0); err != core.ErrUnsupported {
			return fmt.Errorf("MakeTeam should be unsupported (native split)")
		}
		return nil
	})
}

func TestNativeCollectivesDelegate(t *testing.T) {
	run(t, 4, nil, func(s *S) error {
		team := s.WorldTeam()
		buf := []byte{0}
		if s.Proc().ID() == 2 {
			buf[0] = 77
		}
		if err := s.Bcast(team, buf, 2); err != nil {
			return err
		}
		if buf[0] != 77 {
			return fmt.Errorf("bcast delivered %d", buf[0])
		}
		sub, err := s.SplitTeam(team, s.Proc().ID()%2, 0)
		if err != nil {
			return err
		}
		if sub.Size() != 2 {
			return fmt.Errorf("split size %d", sub.Size())
		}
		return s.Barrier(team)
	})
}

func TestRflushOptionChangesFenceScaling(t *testing.T) {
	fence := func(rflush bool, n int) int64 {
		var dt int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			s, err := New(p, fabric.AttachNet(p.World(), tp()),
				func(int, uint8, []uint64, []byte) {}, Options{UseRflush: rflush})
			if err != nil {
				return err
			}
			seg, err := s.AllocSegment(s.WorldTeam(), 64, 1)
			if err != nil {
				return err
			}
			if err := s.Barrier(s.WorldTeam()); err != nil {
				return err
			}
			if p.ID() == 0 {
				if err := s.PutDeferred(seg, n-1, 0, []byte{1}); err != nil {
					return err
				}
				// Drain once so the measured fence has nothing pending:
				// the FlushAll variant still scans every rank, Rflush
				// does not.
				if err := s.ReleaseFence(); err != nil {
					return err
				}
				t0 := p.Now()
				if err := s.ReleaseFence(); err != nil {
					return err
				}
				dt = p.Now() - t0
			}
			return s.Barrier(s.WorldTeam())
		}); err != nil {
			t.Fatal(err)
		}
		return dt
	}
	flushGrowth := fence(false, 128) - fence(false, 8)
	rflushGrowth := fence(true, 128) - fence(true, 8)
	if flushGrowth <= 0 {
		t.Errorf("FlushAll fence should scale with P (delta %d)", flushGrowth)
	}
	if rflushGrowth != 0 {
		t.Errorf("Rflush fence should not scale with P when idle (delta %d)", rflushGrowth)
	}
}
