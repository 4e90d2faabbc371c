package fabric

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"cafmpi/internal/faults"
	"cafmpi/internal/sim"
)

// checkNonOvertaking runs an all-to-all of per-stream-numbered messages on
// a world of np images, under plan when it is non-nil, and fails if any
// receiver observes a (src,dst) stream out of program order. Senders to one
// endpoint race for its mutex; each Inject enqueues before it returns, so a
// sender's own messages can never pass each other.
func checkNonOvertaking(np, msgs int, plan *faults.Plan) error {
	w := sim.NewWorld(np)
	return w.Run(func(p *sim.Proc) error {
		if plan != nil {
			faults.Enable(p.World(), plan)
		}
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		for dst := 0; dst < np; dst++ {
			if dst == p.ID() {
				continue
			}
			for i := 0; i < msgs; i++ {
				if err := l.Send(p, &Message{Dst: dst, Tag: 5, Args: []uint64{uint64(i)}}); err != nil {
					return err
				}
			}
		}
		next := make([]int, np)
		ep := l.Endpoint(p.ID())
		for k := 0; k < (np-1)*msgs; k++ {
			m := ep.Recv(func(*Message) bool { return true })
			if int(m.Args[0]) != next[m.Src] {
				return fmt.Errorf("image %d: stream from %d overtook itself: got seq %d, want %d",
					p.ID(), m.Src, m.Args[0], next[m.Src])
			}
			next[m.Src]++
		}
		return nil
	})
}

func TestAllToAllNonOvertaking(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, tc := range []struct{ np, msgs int }{
		{8, 40},
		{4, 300},
		{2, 612}, // one long stream per direction, deep queues on both sides
	} {
		if err := checkNonOvertaking(tc.np, tc.msgs, nil); err != nil {
			t.Errorf("np=%d msgs=%d: %v", tc.np, tc.msgs, err)
		}
	}
}

// TestAllToAllNonOvertakingProperty: the same invariant as a randomized
// property over (np, msgs), with real host parallelism between senders.
func TestAllToAllNonOvertakingProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	f := func(npSeed, msgSeed uint8) bool {
		np := 2 + int(npSeed)%7
		msgs := 1 + int(msgSeed)%64
		if err := checkNonOvertaking(np, msgs, nil); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDupDeliveryRaceStress hammers every endpoint from eight concurrent
// senders with the fault injector's dup plan active — each dup rides its
// original's Delivery under one hold of the destination mutex, so the dedup
// sweep's at-most-once guarantee holds while producers race. Run under
// -race this is the concurrency certificate for the per-endpoint lock; the
// per-stream order check doubles as a non-overtaking assertion.
func TestDupDeliveryRaceStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	plan := &faults.Plan{Seed: 5, Rules: []faults.Rule{
		{Kind: faults.KindDup, Src: -1, Dst: -1, Prob: 0.5, DelayNS: 300},
	}}
	if err := checkNonOvertaking(8, 120, plan); err != nil {
		t.Fatal(err)
	}
}

// TestWaitActivityWakeContract parks a goroutine in WaitActivity and checks
// that it wakes for every event that bumps the activity counter: an arrival
// of each message class from an arbitrary source, a Poke, and a WakeAll.
// The waiter is known to be parked (counted under the endpoint mutex)
// before each event fires, so a lost wakeup hangs the case and fails it.
func TestWaitActivityWakeContract(t *testing.T) {
	const np = 5
	l := AttachNet(sim.NewWorld(np), testParams()).Layer("t")
	ep := l.Endpoint(0)
	all := MatchSpec{Classes: AllClasses, Src: AnySrc, Before: NoTimeGate}
	parkThen := func(name string, fire func()) {
		t.Helper()
		seq := ep.Seq()
		woke := make(chan uint64, 1)
		go func() { woke <- ep.WaitActivity(seq) }()
		for parked := false; !parked; {
			ep.mu.Lock()
			parked = ep.waiters == 1
			ep.mu.Unlock()
			if !parked {
				runtime.Gosched()
			}
		}
		fire()
		select {
		case got := <-woke:
			if got <= seq {
				t.Errorf("%s: woke with seq %d, want > %d", name, got, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: parked waiter was never woken", name)
		}
	}
	for class := 0; class < classLimit; class++ {
		src := (class*3 + 1) % np // arbitrary, and not the endpoint itself
		parkThen(fmt.Sprintf("arrival class %d from %d", class, src), func() {
			m := NewMessage()
			m.Src, m.Dst, m.Class = src, 0, uint8(class)
			l.Inject(Delivery{Msg: m})
		})
		m, _ := ep.TryRecvSpec(&all)
		if m == nil || int(m.Class) != class {
			t.Fatalf("class %d: queued arrival not found", class)
		}
		m.Release()
	}
	parkThen("Poke", ep.Poke)
	parkThen("WakeAll", ep.WakeAll)
}
