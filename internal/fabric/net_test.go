package fabric

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cafmpi/internal/sim"
)

// testParams is a tiny, easy-to-reason-about parameter set for unit tests.
func testParams() *Params {
	return &Params{
		Name:           "test",
		LatencyNS:      1000,
		GapPerByteNS:   1,
		SendOverheadNS: 100,
		RecvOverheadNS: 100,
		EagerThreshold: 64,
		FlopNS:         1,
		MemNS:          1,
	}
}

func TestEagerDeliveryTimesAndPayload(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			l.Send(p, &Message{Dst: 1, Tag: 7, Data: []byte("hello")})
			// sender pays only its overhead
			if got, want := p.Now(), int64(100); got != want {
				t.Errorf("sender clock %d, want %d", got, want)
			}
			return nil
		}
		m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 7 })
		l.Absorb(p, m, 0)
		if !bytes.Equal(m.Data, []byte("hello")) {
			t.Errorf("payload %q, want %q", m.Data, "hello")
		}
		// arrive = send(100) + L(1000) + 5 bytes; receiver adds o_r(100)
		if got, want := p.Now(), int64(100+1000+5+100); got != want {
			t.Errorf("receiver clock %d, want %d", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSenderBufferReuseAfterEagerSend(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			buf := []byte("original")
			l.Send(p, &Message{Dst: 1, Data: buf})
			copy(buf, "CLOBBER!") // must not affect the in-flight copy
			return nil
		}
		m := l.Endpoint(1).Recv(func(*Message) bool { return true })
		l.Absorb(p, m, 0)
		if string(m.Data) != "original" {
			t.Errorf("payload %q was corrupted by sender reuse", m.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

type tstReq struct{ at atomic.Int64 }

func (r *tstReq) CompleteAt(t int64) { r.at.Store(t) }

func TestRendezvousArrivalDependsOnReceiver(t *testing.T) {
	w := sim.NewWorld(2)
	const lateRecv = int64(50_000)
	// The receiver must not absorb the message (and complete the request)
	// before the sender has checked that injection alone did not.
	checked := make(chan struct{})
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			req := &tstReq{}
			req.at.Store(-1)
			data := make([]byte, 128) // above the 64-byte eager threshold
			l.Send(p, &Message{Dst: 1, Data: data, Req: req})
			if got := req.at.Load(); got != -1 {
				t.Errorf("rendezvous send completed locally at injection (at=%d)", got)
			}
			close(checked)
			return nil
		}
		p.Advance(lateRecv) // receiver arrives late: transfer starts then
		<-checked
		m := l.Endpoint(1).Recv(func(*Message) bool { return true })
		l.Absorb(p, m, 0)
		// start = max(recv clock, RTS arrival) = 50_000;
		// done = start + 2L + 128 bytes + o_r
		want := lateRecv + 2*1000 + 128 + 100
		if p.Now() != want {
			t.Errorf("receiver clock %d, want %d", p.Now(), want)
		}
		if got := m.Req.(*tstReq).at.Load(); got != lateRecv+1000 {
			t.Errorf("sender CTS completion %d, want %d", got, lateRecv+1000)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingSameStream(t *testing.T) {
	w := sim.NewWorld(2)
	const n = 100
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			for i := 0; i < n; i++ {
				l.Send(p, &Message{Dst: 1, Tag: 5, Args: []uint64{uint64(i)}})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 5 })
			if int(m.Args[0]) != i {
				return fmt.Errorf("message %d arrived out of order (got seq %d)", i, m.Args[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveMatchingLeavesOthersQueued(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			l.Send(p, &Message{Dst: 1, Tag: 1})
			l.Send(p, &Message{Dst: 1, Tag: 2})
			l.Send(p, &Message{Dst: 1, Tag: 3})
			return nil
		}
		ep := l.Endpoint(1)
		m2 := ep.Recv(func(m *Message) bool { return m.Tag == 2 })
		if m2.Tag != 2 {
			t.Errorf("matched tag %d, want 2", m2.Tag)
		}
		m1 := ep.Recv(func(m *Message) bool { return m.Tag == 1 })
		m3 := ep.Recv(func(m *Message) bool { return m.Tag == 3 })
		if m1.Tag != 1 || m3.Tag != 3 {
			t.Errorf("remaining tags %d,%d, want 1,3", m1.Tag, m3.Tag)
		}
		if ep.QueueLen() != 0 {
			t.Errorf("queue depth %d after draining, want 0", ep.QueueLen())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayersAreIsolated(t *testing.T) {
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		a, b := net.Layer("a"), net.Layer("b")
		if p.ID() == 0 {
			a.Send(p, &Message{Dst: 1, Tag: 9})
			b.Send(p, &Message{Dst: 1, Tag: 9})
			return nil
		}
		bm := b.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 9 })
		if bm == nil {
			t.Error("layer b message missing")
		}
		if got := a.Endpoint(1).Recv(func(*Message) bool { return true }); got.Tag != 9 {
			t.Errorf("layer a got tag %d", got.Tag)
		}
		if a.Endpoint(1).QueueLen() != 0 || b.Endpoint(1).QueueLen() != 0 {
			t.Error("cross-layer leakage: queues not empty")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTryRecvAndPending(t *testing.T) {
	w := sim.NewWorld(1)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		ep := l.Endpoint(0)
		all := matchAll(nil)
		tag4 := matchAll(func(m *Message) bool { return m.Tag == 4 })
		if m, _ := ep.TryRecvSpec(&all); m != nil {
			t.Error("TryRecvSpec on empty queue returned a message")
		}
		if ep.PeekSpec(&all) != nil {
			t.Error("PeekSpec found a message on an empty queue")
		}
		l.Send(p, &Message{Dst: 0, Tag: 4}) // self-send
		if ep.PeekSpec(&tag4) == nil {
			t.Error("PeekSpec missed the self-send")
		}
		if m, _ := ep.TryRecvSpec(&tag4); m == nil {
			t.Error("TryRecvSpec missed queued message")
		}
		if ep.PeekSpec(&all) != nil {
			t.Error("PeekSpec found a message after the only one was taken")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	w := sim.NewWorld(1)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		defer func() {
			if recover() == nil {
				t.Error("send to rank 5 in 1-image world did not panic")
			}
		}()
		net.Layer("t").Send(p, &Message{Dst: 5})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSRQPenalty(t *testing.T) {
	m := SRQModel{Enabled: true, Threshold: 128, Factor: 2.2}
	if got := m.Penalty(64); got != 1 {
		t.Errorf("penalty below threshold = %v, want 1", got)
	}
	if got := m.Penalty(128); got != 2.2 {
		t.Errorf("penalty at threshold = %v, want 2.2", got)
	}
	off := SRQModel{}
	if got := off.Penalty(4096); got != 1 {
		t.Errorf("disabled SRQ penalty = %v, want 1", got)
	}
}

func TestPlatformPresets(t *testing.T) {
	for _, name := range []string{"fusion", "edison", "mira"} {
		p := Platform(name)
		if p == nil {
			t.Fatalf("preset %q missing", name)
		}
		if p.Name != name {
			t.Errorf("preset %q has Name %q", name, p.Name)
		}
		if p.LatencyNS <= 0 || p.GapPerByteNS <= 0 || p.FlopNS <= 0 {
			t.Errorf("preset %q has non-positive core parameters: %+v", name, p)
		}
		if p.MPI.PutNS <= p.GASNet.PutNS {
			t.Errorf("preset %q: MPI RMA per-op overhead (%d) should exceed GASNet's (%d) per the paper's microbenchmarks",
				name, p.MPI.PutNS, p.GASNet.PutNS)
		}
	}
	if Platform("nosuch") != nil {
		t.Error("unknown platform should return nil")
	}
	if !Fusion.GASNet.SRQ.Enabled {
		t.Error("fusion preset must enable SRQ (Figure 3)")
	}
	if Edison.GASNet.SRQ.Enabled || Mira.GASNet.SRQ.Enabled {
		t.Error("SRQ is an InfiniBand feature; only fusion enables it")
	}
}

func TestCostHelpers(t *testing.T) {
	p := testParams()
	if got := p.FlopTime(1000); got != 1000 {
		t.Errorf("FlopTime(1000) = %d, want 1000", got)
	}
	if got := p.MemTime(64); got != 64 {
		t.Errorf("MemTime(64) = %d, want 64", got)
	}
	if got := p.WireTime(10); got != 10 {
		t.Errorf("WireTime(10) = %d, want 10", got)
	}
	if p.FlopTime(0) != 0 || p.MemTime(0) != 0 {
		t.Error("zero-work cost should be zero")
	}
}

// Property: any payload sent arrives intact, exactly once, regardless of
// size (crossing the eager/rendezvous boundary) and tag.
func TestDeliveryRoundTripProperty(t *testing.T) {
	f := func(payload []byte, tag uint8) bool {
		w := sim.NewWorld(2)
		var got []byte
		err := w.Run(func(p *sim.Proc) error {
			net := AttachNet(p.World(), testParams())
			l := net.Layer("t")
			if p.ID() == 0 {
				l.Send(p, &Message{Dst: 1, Tag: int(tag), Data: payload})
				return nil
			}
			m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == int(tag) })
			l.Absorb(p, m, 0)
			got = m.Data
			return nil
		})
		if err != nil {
			return false
		}
		if len(payload) == 0 {
			return len(got) == 0
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: virtual clocks never run backwards through a send/receive pair,
// and the receiver always lands at or after the sender's injection time.
func TestCausalityProperty(t *testing.T) {
	f := func(preAdvance uint16, size uint16) bool {
		w := sim.NewWorld(2)
		ok := true
		err := w.Run(func(p *sim.Proc) error {
			net := AttachNet(p.World(), testParams())
			l := net.Layer("t")
			if p.ID() == 0 {
				p.Advance(int64(preAdvance))
				l.Send(p, &Message{Dst: 1, Data: make([]byte, int(size)%512)})
				return nil
			}
			m := l.Endpoint(1).Recv(func(*Message) bool { return true })
			before := p.Now()
			l.Absorb(p, m, 0)
			if p.Now() < before || p.Now() < m.SendT {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeTopologyPaths(t *testing.T) {
	p := testParams()
	p.CoresPerNode = 4
	p.IntraLatencyNS = 100
	p.IntraGapNS = 0.25

	if !p.SameNode(0, 3) || p.SameNode(3, 4) || !p.SameNode(5, 6) {
		t.Error("node membership wrong")
	}
	if p.PathLatency(0, 1) != 100 || p.PathLatency(0, 4) != 1000 {
		t.Errorf("path latency intra=%d inter=%d", p.PathLatency(0, 1), p.PathLatency(0, 4))
	}
	if p.PathWireTime(0, 1, 100) != 25 || p.PathWireTime(0, 4, 100) != 100 {
		t.Errorf("path wire intra=%d inter=%d", p.PathWireTime(0, 1, 100), p.PathWireTime(0, 4, 100))
	}
	// No topology configured: everything is inter-node.
	q := testParams()
	if q.SameNode(0, 1) {
		t.Error("CoresPerNode=0 should disable node topology")
	}
}

func TestIntraNodeMessagingIsCheaper(t *testing.T) {
	params := testParams()
	params.CoresPerNode = 2
	params.IntraLatencyNS = 50
	params.IntraGapNS = 0.1
	w := sim.NewWorld(4)
	times := make([]int64, 4)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), params)
		l := net.Layer("t")
		if p.ID() == 0 {
			l.Send(p, &Message{Dst: 1, Tag: 1, Data: make([]byte, 32)}) // same node
			l.Send(p, &Message{Dst: 2, Tag: 1, Data: make([]byte, 32)}) // other node
			return nil
		}
		if p.ID() == 1 || p.ID() == 2 {
			m := l.Endpoint(p.ID()).Recv(func(m *Message) bool { return m.Tag == 1 })
			l.Absorb(p, m, 0)
			times[p.ID()] = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if times[1] >= times[2] {
		t.Errorf("intra-node delivery (%d ns) should beat inter-node (%d ns)", times[1], times[2])
	}
}

func TestNICClaimQueuesOverlapping(t *testing.T) {
	var n nic
	// Three transfers wanting the same start serialize.
	d1 := n.claim(1000, 100)
	d2 := n.claim(1000, 100)
	d3 := n.claim(1000, 100)
	if d1 != 1100 || d2 != 1200 || d3 != 1300 {
		t.Errorf("serialization wrong: %d %d %d", d1, d2, d3)
	}
}

func TestNICClaimBackfillsGaps(t *testing.T) {
	var n nic
	if got := n.claim(5000, 100); got != 5100 {
		t.Fatalf("first claim %d", got)
	}
	// An out-of-order claim earlier in virtual time fits before the
	// existing reservation instead of queueing behind it.
	if got := n.claim(1000, 100); got != 1100 {
		t.Errorf("backfill failed: %d", got)
	}
	// A gap too small for the request skips to after the blocker.
	if got := n.claim(4950, 100); got != 5200 {
		t.Errorf("tight-gap claim %d, want 5200", got)
	}
}

func TestNICClaimCoalesces(t *testing.T) {
	var n nic
	n.claim(1000, 100) // [1000,1100)
	n.claim(1100, 100) // adjacent -> coalesce to [1000,1200)
	n.claim(1200, 100) // -> [1000,1300)
	if len(n.busy) != 1 {
		t.Errorf("adjacent reservations not coalesced: %d intervals", len(n.busy))
	}
	if n.busy[0].start != 1000 || n.busy[0].end != 1300 {
		t.Errorf("coalesced interval [%d,%d)", n.busy[0].start, n.busy[0].end)
	}
}

func TestNICClaimEvictsOldHistory(t *testing.T) {
	var n nic
	// Many disjoint reservations: the list stays bounded.
	for i := 0; i < 4*maxNICIntervals; i++ {
		n.claim(int64(i)*1000, 10)
	}
	if len(n.busy) > maxNICIntervals {
		t.Errorf("interval list unbounded: %d", len(n.busy))
	}
}

func TestNICZeroOccupancyBypasses(t *testing.T) {
	w := sim.NewWorld(2)
	if err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		if p.ID() == 0 {
			net.ClaimNIC(1, 9_000_000, 1000) // park a far-future reservation
			if got := net.ClaimNIC(1, 100, 0); got != 100 {
				return fmt.Errorf("zero-size control message delayed to %d", got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
