package rtgasnet

import (
	"bytes"
	"fmt"
	"testing"

	"cafmpi/internal/core"
	"cafmpi/internal/fabric"
	"cafmpi/internal/gasnet"
	"cafmpi/internal/sim"
)

func tp() *fabric.Params {
	p := fabric.Fusion
	p.Name = "test"
	p.GASNet.SRQ.Enabled = false
	return &p
}

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
		err = fn(s)
		if err != nil {
			t.Logf("image %d: %v", p.ID(), err)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAndCaps(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		if s.Name() != "gasnet" {
			return fmt.Errorf("name %q", s.Name())
		}
		c := s.Caps()
		if c.PutWithRemoteEventViaAM {
			return fmt.Errorf("caps %+v: GASNet notifies on put arrival natively", c)
		}
		if s.Platform() == nil || s.Ep() == nil {
			return fmt.Errorf("accessors nil")
		}
		if _, err := s.SplitTeam(s.WorldTeam(), 0, 0); err != core.ErrUnsupported {
			return fmt.Errorf("SplitTeam should be unsupported")
		}
		tm, err := s.MakeTeam([]int{1, 0}, 1)
		if err != nil {
			return err
		}
		if tm.Size() != 2 || tm.Rank() != 1 || tm.WorldRank(0) != 1 {
			return fmt.Errorf("MakeTeam mapping wrong")
		}
		if err := s.Bcast(s.WorldTeam(), nil, 0); err != core.ErrUnsupported {
			return fmt.Errorf("collectives should be unsupported")
		}
		s.Poll()
		return s.Barrier(s.WorldTeam())
	})
}

func TestRegisteredSegmentPutGet(t *testing.T) {
	run(t, 3, nil, func(s *S) error {
		seg, err := s.AllocSegment(s.WorldTeam(), 64, 42)
		if err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		me := s.Proc().ID()
		next := (me + 1) % 3
		if err := s.Put(seg, next, 8, []byte{byte(me + 1)}); err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		prev := (me + 2) % 3
		if seg.Local()[8] != byte(prev+1) {
			return fmt.Errorf("put landed wrong: %d", seg.Local()[8])
		}
		into := make([]byte, 1)
		if err := s.Get(seg, next, 8, into); err != nil {
			return err
		}
		if into[0] != byte(me+1) {
			return fmt.Errorf("get returned %d", into[0])
		}
		if err := s.Barrier(s.WorldTeam()); err != nil { // all gets done
			return err
		}
		if err := s.FreeSegment(seg); err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		// Every image has dropped its registration now.
		if err := s.Put(seg, next, 0, []byte{1}); err == nil {
			return fmt.Errorf("put to freed segment should fail")
		}
		return s.Barrier(s.WorldTeam())
	})
}

func TestAMFragmentationRoundTrip(t *testing.T) {
	// Payloads above gasnet.MaxMedium must fragment and reassemble.
	sizes := []int{0, 1, gasnet.MaxMedium, gasnet.MaxMedium + 1, 3*gasnet.MaxMedium + 17}
	for _, size := range sizes {
		size := size
		got := make([][]byte, 2)
		gotArgs := make([][]uint64, 2)
		done := make([]bool, 2)
		run(t, 2,
			func(im int) core.DeliverFunc {
				return func(src int, kind uint8, args []uint64, payload []byte) {
					got[im] = append([]byte(nil), payload...)
					gotArgs[im] = append([]uint64(nil), args...)
					done[im] = true
				}
			},
			func(s *S) error {
				if s.Proc().ID() == 0 {
					payload := make([]byte, size)
					for i := range payload {
						payload[i] = byte(i * 7)
					}
					if err := s.AMSend(1, 9, []uint64{5, 6}, payload); err != nil {
						return err
					}
				} else {
					s.PollUntil(func() bool { return done[1] })
					if len(got[1]) != size {
						return fmt.Errorf("size %d: received %d bytes", size, len(got[1]))
					}
					for i, b := range got[1] {
						if b != byte(i*7) {
							return fmt.Errorf("size %d: corruption at %d", size, i)
						}
					}
					if len(gotArgs[1]) != 2 || gotArgs[1][1] != 6 {
						return fmt.Errorf("args mangled: %v", gotArgs[1])
					}
				}
				return s.Barrier(s.WorldTeam())
			})
	}
}

func TestAMArgLimit(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		tooMany := make([]uint64, gasnet.MaxArgs-4)
		if err := s.AMSend(1, 1, tooMany, nil); err == nil {
			return fmt.Errorf("oversized arg vector accepted")
		}
		return nil
	})
}

func TestDeferredAndFences(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		seg, err := s.AllocSegment(s.WorldTeam(), 64, 7)
		if err != nil {
			return err
		}
		copy(seg.Local(), bytes.Repeat([]byte{byte(s.Proc().ID() + 1)}, 64))
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		peer := 1 - s.Proc().ID()
		into := make([]byte, 64)
		if err := s.GetDeferred(seg, peer, 0, into); err != nil {
			return err
		}
		if err := s.LocalFenceScoped(true, true); err != nil {
			return err
		}
		if into[0] != byte(peer+1) {
			return fmt.Errorf("deferred get wrong: %d", into[0])
		}
		if err := s.PutDeferred(seg, peer, 32, []byte{0xAA}); err != nil {
			return err
		}
		if err := s.ReleaseFence(); err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if seg.Local()[32] != 0xAA {
			return fmt.Errorf("deferred put missing after release fence")
		}
		return nil
	})
}

func TestAsyncCompletions(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		seg, err := s.AllocSegment(s.WorldTeam(), 32, 3)
		if err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if s.Proc().ID() == 0 {
			comp, err := s.PutAsyncLocal(seg, 1, 0, []byte{1, 2, 3})
			if err != nil {
				return err
			}
			comp.Wait()
			if !comp.Test() {
				return fmt.Errorf("completion not done after Wait")
			}
			into := make([]byte, 3)
			g, err := s.GetAsync(seg, 1, 0, into)
			if err != nil {
				return err
			}
			g.Wait()
			if into[2] != 3 {
				return fmt.Errorf("async get returned %v", into)
			}
		}
		return s.Barrier(s.WorldTeam())
	})
}

func TestAMWriteModeDelivers(t *testing.T) {
	// AM-mediated writes (Options.AMWrite) still deliver correct data when
	// the target polls (the Figure 2 hazard only bites when it cannot).
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		s, err := New(p, fabric.AttachNet(p.World(), tp()),
			func(int, uint8, []uint64, []byte) {}, Options{AMWrite: true})
		if err != nil {
			return err
		}
		seg, err := s.AllocSegment(s.WorldTeam(), 64<<10, 11)
		if err != nil {
			return err
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if p.ID() == 0 {
			big := bytes.Repeat([]byte{0x42}, 40<<10) // multiple AM chunks
			if err := s.Put(seg, 1, 100, big); err != nil {
				return err
			}
		} else {
			// The target must poll for the writer's AM chunks to land; the
			// barrier below polls internally.
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if p.ID() == 1 {
			loc := seg.Local()
			if loc[100] != 0x42 || loc[100+40<<10-1] != 0x42 || loc[99] != 0 {
				return fmt.Errorf("AM write landed wrong")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFootprintGrowsWithSlabs(t *testing.T) {
	run(t, 2, nil, func(s *S) error {
		before := s.MemoryFootprint()
		seg, err := s.AllocSegment(s.WorldTeam(), 1<<20, 99)
		if err != nil {
			return err
		}
		if s.MemoryFootprint()-before != 1<<20 {
			return fmt.Errorf("slab not accounted: delta %d", s.MemoryFootprint()-before)
		}
		if err := s.Barrier(s.WorldTeam()); err != nil {
			return err
		}
		if err := s.FreeSegment(seg); err != nil {
			return err
		}
		if s.MemoryFootprint() != before {
			return fmt.Errorf("footprint %d after free, want %d", s.MemoryFootprint(), before)
		}
		return s.Barrier(s.WorldTeam())
	})
}
