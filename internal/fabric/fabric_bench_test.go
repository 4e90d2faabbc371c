package fabric

import (
	"testing"

	"cafmpi/internal/sim"
)

// BenchmarkFabricSendRecv measures the per-message wall-clock cost of the
// fabric fast path under a two-image ping-pong: injection (Send), matched
// receive, absorb, and the blocking wakeup in between. One op is a full
// round trip, so every iteration exercises the waiter path on both sides.
func BenchmarkFabricSendRecv(b *testing.B) {
	b.ReportAllocs()
	payload := make([]byte, 32)
	w := sim.NewWorld(2)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("bench")
		ep := l.Endpoint(p.ID())
		peer := 1 - p.ID()
		for i := 0; i < b.N; i++ {
			if p.ID() == 0 {
				s := NewMessage()
				s.Dst, s.Tag, s.Data = peer, 1, payload
				l.Send(p, s)
				m := ep.Recv(func(m *Message) bool { return m.Tag == 2 })
				l.Absorb(p, m, 0)
				m.Release()
			} else {
				m := ep.Recv(func(m *Message) bool { return m.Tag == 1 })
				l.Absorb(p, m, 0)
				m.Release()
				s := NewMessage()
				s.Dst, s.Tag, s.Data = peer, 2, payload
				l.Send(p, s)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFabricWildcardMatch measures match cost on a deep queue fed by
// several senders: each round, ranks 1..nSend burst a mix of tagged
// messages at rank 0, which then drains them with exact (src, tag)
// MatchSpec receives for the rarest tag — which walk the class list past
// every other sender's queued messages — followed by wildcard receives
// for the rest (first eligible message from the head). This is the
// unexpected-message pattern that dominates RandomAccess-style traffic.
func BenchmarkFabricWildcardMatch(b *testing.B) {
	b.ReportAllocs()
	const (
		nSend   = 7  // senders (world size 8)
		perSrc  = 32 // messages per sender per round
		numTags = 4
	)
	w := sim.NewWorld(nSend + 1)
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("bench")
		ep := l.Endpoint(p.ID())
		if p.ID() == 0 {
			// One spec per source, filter bound once, reused every round —
			// the way the MPI progress engine holds its specs.
			specs := make([]MatchSpec, nSend+1)
			for s := 1; s <= nSend; s++ {
				specs[s] = MatchSpec{Classes: AllClasses, Src: s, Before: NoTimeGate,
					Filter: func(m *Message) bool { return m.Tag == numTags-1 }}
			}
			recvSpec := func(spec *MatchSpec) *Message {
				for {
					seq := ep.Seq()
					if m, _ := ep.TryRecvSpec(spec); m != nil {
						return m
					}
					ep.WaitActivity(seq)
				}
			}
			for i := 0; i < b.N; i++ {
				// Exact receives for the deepest-queued tag of each source.
				for s := 1; s <= nSend; s++ {
					for k := 0; k < perSrc/numTags; k++ {
						m := recvSpec(&specs[s])
						l.Absorb(p, m, 0)
						m.Release()
					}
				}
				// Wildcard receives drain everything else in arrival order.
				rest := nSend * perSrc * (numTags - 1) / numTags
				for k := 0; k < rest; k++ {
					m := ep.Recv(func(m *Message) bool { return m.Tag < numTags-1 })
					l.Absorb(p, m, 0)
					m.Release()
				}
				// Resynchronize the senders for the next round.
				for s := 1; s <= nSend; s++ {
					g := NewMessage()
					g.Dst, g.Tag = s, 99
					l.Send(p, g)
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			for k := 0; k < perSrc; k++ {
				s := NewMessage()
				s.Dst, s.Tag = 0, k%numTags
				l.Send(p, s)
			}
			m := ep.Recv(func(m *Message) bool { return m.Tag == 99 })
			l.Absorb(p, m, 0)
			m.Release()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
