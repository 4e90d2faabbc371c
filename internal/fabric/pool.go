package fabric

import (
	"math/bits"
	"sync"
)

// Allocation recycling for the per-message fast path. Every Send used to
// heap-allocate a Message and a fresh payload copy; at RandomAccess rates
// that dominates wall-clock via allocator and GC pressure. Messages and
// payload buffers now cycle through free lists: checked out at injection,
// returned by the consuming layer (mpi delivery, gasnet handler completion,
// barrier absorption) once the payload has been copied out or handed to a
// handler whose contract forbids retention.
//
// These free lists are sync.Pools, which the Go runtime already shards
// per-P, so they scale with GOMAXPROCS without help; injection itself only
// links the message into the destination's class list, so the delivery
// path allocates nothing at steady state.

// inlineArgs is the inline Args capacity of a pooled Message. The largest
// wire header in the tree is rtgasnet's fragmented-AM header (5 slots plus
// up to 11 user args) and gasnet's long-AM header (2 slots plus up to
// MaxArgs=16 user args), both at most 18; 24 leaves headroom.
const inlineArgs = 24

var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed Message from the free list. Ownership of any
// Message handed to Layer.Send transfers to the fabric: the sender must not
// touch it afterwards. The consumer recycles it with Release.
func NewMessage() *Message {
	m := msgPool.Get().(*Message)
	m.pooled = true
	return m
}

// Release returns m and its pooled payload buffer to the free lists. Only
// the consumer that dequeued m may call it, after the payload has been
// copied out (or, for AM dispatch, after the handler — which must not
// retain the payload — has returned). Messages built by callers rather
// than NewMessage only have their payload buffer recycled. Releasing a
// message that still sits in an endpoint's queue panics: recycling it would
// hand its list links to the next NewMessage caller and corrupt the queue.
func (m *Message) Release() {
	if m.queued {
		panic("fabric: Release of a message still queued at an endpoint (peeked, not taken?)")
	}
	if m.dataBuf != nil {
		if m.owner != nil {
			m.owner.poolBytes.Add(-int64(cap(m.dataBuf.b)))
		}
		putBuf(m.dataBuf)
	}
	pooled := m.pooled
	m.Src, m.Dst = 0, 0
	m.Class, m.Tag, m.Ctx = 0, 0, 0
	m.Args, m.Data = nil, nil
	m.SendT, m.ArriveT = 0, 0
	m.Rendezvous = false
	m.Req = nil
	m.DupKey = 0
	m.aseq = 0
	m.qprev, m.qnext = nil, nil
	m.owner = nil
	m.dataBuf = nil
	m.pooled = false
	if pooled {
		msgPool.Put(m)
	}
}

// Payload buffers come in power-of-two size classes from 64 B to 1 MiB;
// larger payloads fall back to plain allocation (they are rendezvous-sized
// and rare, so the copy dwarfs the allocation anyway).
const (
	minBufBits    = 6
	maxBufBits    = 20
	numBufClasses = maxBufBits - minBufBits + 1
)

// pbuf wraps a payload buffer so the free lists recycle a stable pointer
// instead of re-boxing a slice header on every put.
type pbuf struct{ b []byte }

var bufPools [numBufClasses]sync.Pool

func bufClass(n int) int {
	if n <= 1<<minBufBits {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufBits
}

// getBuf checks out a buffer of length n. The second result is nil when n
// exceeds the largest size class (unpooled allocation).
func getBuf(n int) ([]byte, *pbuf) {
	if n > 1<<maxBufBits {
		return make([]byte, n), nil
	}
	c := bufClass(n)
	pb, _ := bufPools[c].Get().(*pbuf)
	if pb == nil {
		pb = &pbuf{b: make([]byte, 1<<(c+minBufBits))}
	}
	return pb.b[:n], pb
}

func putBuf(pb *pbuf) {
	bufPools[bufClass(cap(pb.b))].Put(pb)
}
