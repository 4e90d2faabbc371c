package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"cafmpi/internal/sim"
)

// TestSendArgsCopied pins the Args-copy contract of Layer.Send: the sender
// may overwrite its args slice the moment Send returns, exactly as it may
// reuse the payload buffer. A fabric that aliased the caller's slice would
// deliver the overwritten values.
func TestSendArgsCopied(t *testing.T) {
	w := sim.NewWorld(2)
	const n = 8
	err := w.Run(func(p *sim.Proc) error {
		net := AttachNet(p.World(), testParams())
		l := net.Layer("t")
		if p.ID() == 0 {
			// One shared scratch slice, rewritten before every send:
			// short (inline-arg store) and long (heap-copied) shapes.
			scratch := make([]uint64, inlineArgs+4)
			for i := 0; i < n; i++ {
				ln := 2
				if i%2 == 1 {
					ln = inlineArgs + 4
				}
				args := scratch[:ln]
				for j := range args {
					args[j] = uint64(i*100 + j)
				}
				l.Send(p, &Message{Dst: 1, Tag: 3, Args: args})
				for j := range args {
					args[j] = ^uint64(0) // clobber immediately
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m := l.Endpoint(1).Recv(func(m *Message) bool { return m.Tag == 3 })
			ln := 2
			if i%2 == 1 {
				ln = inlineArgs + 4
			}
			if len(m.Args) != ln {
				return fmt.Errorf("message %d: got %d args, want %d", i, len(m.Args), ln)
			}
			for j, v := range m.Args {
				if want := uint64(i*100 + j); v != want {
					return fmt.Errorf("message %d arg %d = %d, want %d (sender scratch aliased?)", i, j, v, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedNonOvertaking is a property test for the match queues:
// several senders interleave messages across random (class, tag) streams
// while the receiver drains them through a random mix of wildcard and
// exact matchers. Whatever the matcher shape, messages within one
// (src, class, tag) stream must be received in send order — the per-class
// lists may never let a later message overtake an earlier one, and a
// wildcard take across classes must follow arrival sequence. Run under
// -race this also hammers the enqueue/take/wake paths from many goroutines.
func TestRandomizedNonOvertaking(t *testing.T) {
	const (
		senders = 4
		perSend = 300
		classes = 3
		tags    = 4
	)
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := sim.NewWorld(senders + 1)
			err := w.Run(func(p *sim.Proc) error {
				net := AttachNet(p.World(), testParams())
				l := net.Layer("t")
				if p.ID() > 0 {
					rng := rand.New(rand.NewSource(seed + int64(p.ID())))
					for i := 0; i < perSend; i++ {
						l.Send(p, &Message{
							Dst:   0,
							Class: uint8(rng.Intn(classes)),
							Tag:   rng.Intn(tags),
							Args:  []uint64{uint64(i)},
						})
					}
					return nil
				}
				// Receiver: reconstruct how many messages each stream
				// carries (same per-sender generator), then drain with
				// randomly chosen matchers and check per-stream order.
				remaining := map[[3]int]int{}
				for s := 1; s <= senders; s++ {
					rng := rand.New(rand.NewSource(seed + int64(s)))
					for i := 0; i < perSend; i++ {
						remaining[[3]int{s, rng.Intn(classes), rng.Intn(tags)}]++
					}
				}
				var streams [][3]int
				for k := range remaining {
					streams = append(streams, k)
				}
				lastSeq := map[[3]int]int{}
				check := func(m *Message) error {
					k := [3]int{m.Src, int(m.Class), m.Tag}
					seq := int(m.Args[0])
					if last, seen := lastSeq[k]; seen && seq <= last {
						return fmt.Errorf("stream src=%d class=%d tag=%d: seq %d after %d (overtaking)",
							m.Src, m.Class, m.Tag, seq, last)
					}
					lastSeq[k] = seq
					remaining[k]--
					return nil
				}
				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				e := l.Endpoint(0)
				for left := senders * perSend; left > 0; left-- {
					var m *Message
					if rng.Intn(2) == 0 {
						// Exact matcher on a stream that still has
						// messages outstanding.
						k := streams[rng.Intn(len(streams))]
						for remaining[k] == 0 {
							k = streams[rng.Intn(len(streams))]
						}
						m = e.Recv(func(m *Message) bool {
							return m.Src == k[0] && int(m.Class) == k[1] && m.Tag == k[2]
						})
					} else {
						m = e.Recv(func(m *Message) bool { return true })
					}
					if err := check(m); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
