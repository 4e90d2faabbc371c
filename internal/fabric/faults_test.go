package fabric

import (
	"bytes"
	"errors"
	"testing"

	"cafmpi/internal/faults"
	"cafmpi/internal/sim"
)

// faultNet enables a fault plan on the proc's world and attaches the test
// fabric (Enable must precede AttachNet, as core.Boot guarantees).
func faultNet(p *sim.Proc, plan *faults.Plan) *Net {
	faults.Enable(p.World(), plan)
	return AttachNet(p.World(), testParams())
}

// TestRetryChargesSenderClock: a dropped eager message costs the sender
// one ack-timeout backoff in virtual time, then delivers normally.
func TestRetryChargesSenderClock(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.KindDrop, Src: -1, Dst: -1, Prob: 1, MaxCount: 1},
	}}
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		l := faultNet(p, plan).Layer("t")
		if p.ID() == 0 {
			if err := l.Send(p, &Message{Dst: 1, Tag: 5, Data: []byte("retry")}); err != nil {
				return err
			}
			// o_s (100) + one retry timeout (8000): the retransmission is
			// folded into the sender's clock, no extra message objects.
			if got, want := p.Now(), int64(100+faults.DefaultRetryTimeoutNS); got != want {
				t.Errorf("sender clock %d, want %d", got, want)
			}
			return nil
		}
		m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 5 })
		l.Absorb(p, m, 0)
		if !bytes.Equal(m.Data, []byte("retry")) {
			t.Errorf("payload %q survived the retry wrong", m.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := faults.Enabled(w).Log()
	if len(evs) != 1 || evs[0].Kind != faults.KindDrop {
		t.Fatalf("log = %v, want one drop", evs)
	}
}

// TestRetriesExhausted: when every attempt is dropped, Send fails with the
// typed chain and the origin request still completes, on both the eager
// and rendezvous paths.
func TestRetriesExhausted(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.KindDrop, Src: -1, Dst: -1, Prob: 1},
	}}
	for _, size := range []int{16, 128} { // eager / rendezvous vs 64B threshold
		w := sim.NewWorld(2)
		err := w.Run(func(p *sim.Proc) error {
			l := faultNet(p, plan).Layer("t")
			if p.ID() != 0 {
				return nil
			}
			req := &tstReq{}
			req.at.Store(-1)
			err := l.Send(p, &Message{Dst: 1, Data: make([]byte, size), Req: req})
			if !errors.Is(err, faults.ErrRetriesExhausted) || !errors.Is(err, faults.ErrTimeout) {
				t.Errorf("size %d: err = %v, want ErrRetriesExhausted (a timeout)", size, err)
			}
			var ie *faults.ImageError
			if !errors.As(err, &ie) || ie.Image != 1 {
				t.Errorf("size %d: err = %#v, want ImageError naming image 1", size, err)
			}
			if req.at.Load() < 0 {
				t.Errorf("size %d: origin request never completed; a waiter would hang", size)
			}
			// Full backoff schedule charged: sum of timeout<<k.
			var backoff int64
			for k := 0; k < faults.DefaultMaxRetries; k++ {
				backoff += faults.DefaultRetryTimeoutNS << uint(k)
			}
			if got, want := p.Now(), 100+backoff; got != want {
				t.Errorf("size %d: sender clock %d, want %d", size, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDuplicateDedup: a dup-injected message is absorbed at most once —
// the sibling copy is swept at the first real take, on both the eager and
// rendezvous paths.
func TestDuplicateDedup(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.KindDup, Src: -1, Dst: -1, Prob: 1, DelayNS: 700},
	}}
	for _, size := range []int{8, 128} {
		w := sim.NewWorld(2)
		err := w.Run(func(p *sim.Proc) error {
			l := faultNet(p, plan).Layer("t")
			if p.ID() == 0 {
				return l.Send(p, &Message{Dst: 1, Tag: 9, Data: make([]byte, size)})
			}
			m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 9 })
			if len(m.Data) != size {
				t.Errorf("size %d: got %d bytes", size, len(m.Data))
			}
			l.Absorb(p, m, 0)
			all := matchAll(nil)
			if d, _ := l.Endpoint(1).TryRecvSpec(&all); d != nil {
				t.Errorf("size %d: duplicate escaped the dedup sweep: %+v", size, d)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var dups, dedups int
		for _, ev := range faults.Enabled(w).Log() {
			switch ev.Kind {
			case faults.KindDup:
				dups++
			case faults.KindDedup:
				dedups++
			}
		}
		if dups != 1 || dedups != 1 {
			t.Fatalf("size %d: log has %d dup / %d dedup events, want 1/1", size, dups, dedups)
		}
	}
}

// TestDuplicateDedupStress: the original and its injected duplicate travel
// as one Delivery through Inject and become visible atomically (one hold
// of the destination endpoint's mutex), so a fast concurrent receiver
// can never absorb the original before the duplicate exists — the window
// that would orphan the duplicate and deliver it as a real second copy.
// Every original is absorbed exactly once, every sibling swept exactly once.
func TestDuplicateDedupStress(t *testing.T) {
	const msgs = 300
	plan := &faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Kind: faults.KindDup, Src: -1, Dst: -1, Prob: 1, DelayNS: 1},
	}}
	w := sim.NewWorld(2)
	var ep *Endpoint
	err := w.Run(func(p *sim.Proc) error {
		l := faultNet(p, plan).Layer("t")
		if p.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if err := l.Send(p, &Message{Dst: 1, Tag: i, Data: []byte{byte(i)}}); err != nil {
					return err
				}
			}
			return nil
		}
		ep = l.Endpoint(1)
		for i := 0; i < msgs; i++ {
			m := ep.Recv(func(*Message) bool { return true })
			l.Absorb(p, m, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := ep.QueueLen(); n != 0 {
		t.Fatalf("%d messages still queued after %d receives: a duplicate escaped the dedup sweep", n, msgs)
	}
	var dups, dedups int
	for _, ev := range faults.Enabled(w).Log() {
		switch ev.Kind {
		case faults.KindDup:
			dups++
		case faults.KindDedup:
			dedups++
		}
	}
	if dups != msgs || dedups != msgs {
		t.Fatalf("log has %d dup / %d dedup events, want %d/%d", dups, dedups, msgs, msgs)
	}
}

// TestCrashPointPanics: an image hitting its crash point aborts with the
// typed panic, which unwraps to ErrImageFailed through the sim layer.
func TestCrashPointPanics(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Crashes: []faults.CrashPoint{{Image: 0, AtNS: 0}}}
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		l := faultNet(p, plan).Layer("t")
		if p.ID() == 0 {
			return l.Send(p, &Message{Dst: 1, Data: []byte("never")})
		}
		return nil
	})
	if err == nil || !errors.Is(err, faults.ErrImageFailed) {
		t.Fatalf("run error = %v, want ErrImageFailed chain", err)
	}
	if faults.Enabled(w).FailedImage() != 0 {
		t.Fatal("crash did not latch image 0 as failed")
	}
}

// TestBlackholeAfterFailure: sends to an already-failed image return the
// typed error immediately (ULFM-style notification, not a hang) and
// complete the origin request.
func TestBlackholeAfterFailure(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Stalls: []faults.StallPoint{{Image: 1, AtNS: 1 << 40, DurNS: 1}}}
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := faultNet(p, plan)
		l := net.Layer("t")
		if p.ID() != 0 {
			return nil
		}
		faults.Enabled(p.World()).MarkFailed(1)
		req := &tstReq{}
		req.at.Store(-1)
		err := l.Send(p, &Message{Dst: 1, Data: []byte("dead letter"), Req: req})
		if !errors.Is(err, faults.ErrImageFailed) {
			t.Errorf("send to failed image: err = %v, want ErrImageFailed", err)
		}
		if req.at.Load() < 0 {
			t.Error("blackholed send left its origin request pending")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStallPointCharges: a stall point charges its duration once, at the
// next fabric operation at or after its virtual time.
func TestStallPointCharges(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Stalls: []faults.StallPoint{{Image: 0, AtNS: 0, DurNS: 5000}}}
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		l := faultNet(p, plan).Layer("t")
		if p.ID() == 0 {
			if err := l.Send(p, &Message{Dst: 1, Data: []byte("x")}); err != nil {
				return err
			}
			// stall (5000) + o_s (100)
			if got, want := p.Now(), int64(5000+100); got != want {
				t.Errorf("sender clock %d, want %d (stall + overhead)", got, want)
			}
			if err := l.Send(p, &Message{Dst: 1, Data: []byte("y")}); err != nil {
				return err
			}
			if got, want := p.Now(), int64(5000+200); got != want {
				t.Errorf("sender clock after 2nd send %d, want %d (stall is one-shot)", got, want)
			}
			return nil
		}
		for i := 0; i < 2; i++ {
			m := l.Endpoint(1).Recv(func(*Message) bool { return true })
			l.Absorb(p, m, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoPlanZeroCost: with faults never enabled the send path's clock
// arithmetic is untouched (the goldens depend on this).
func TestNoPlanZeroCost(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		l := AttachNet(p.World(), testParams()).Layer("t")
		if p.ID() == 0 {
			if err := l.Send(p, &Message{Dst: 1, Data: []byte("plain")}); err != nil {
				return err
			}
			if got, want := p.Now(), int64(100); got != want {
				t.Errorf("sender clock %d, want %d", got, want)
			}
			return nil
		}
		m := l.Endpoint(1).Recv(func(*Message) bool { return true })
		l.Absorb(p, m, 0)
		if got, want := p.Now(), int64(100+1000+5+100); got != want {
			t.Errorf("receiver clock %d, want %d", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
