package fabric

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cafmpi/internal/sim"
)

// Differential test of the endpoint's match queues against the seed's
// matcher, which is the specification: one arrival-ordered slice, scanned
// linearly. A byte program drives the same interleaving of injections
// (plain and injector-duplicated), takes, peeks and poll snapshots through
// both, and every observable — which message, queue depth, activity count,
// earliest-arrival report — must agree at every step.

// refQueue is the reference model. It holds shadow copies (the fabric
// recycles the real messages), identified by Args[0].
type refQueue struct {
	q []*Message
}

// matchAll is a spec over every class and source with no time gate.
func matchAll(filter func(*Message) bool) MatchSpec {
	return MatchSpec{Classes: AllClasses, Src: AnySrc, Before: NoTimeGate, Filter: filter}
}

func refEligible(m *Message, s *MatchSpec) bool {
	return s.Classes&(1<<m.Class) != 0 && (s.Src == AnySrc || s.Src == m.Src) && (s.Filter == nil || s.Filter(m))
}

// find returns the index of the first message eligible under s, or -1 plus
// the earliest arrival among messages that fail only the time gate.
func (r *refQueue) find(s *MatchSpec) (idx int, earliest int64, has bool) {
	for i, m := range r.q {
		if !refEligible(m, s) {
			continue
		}
		if m.ArriveT <= s.Before {
			return i, 0, false
		}
		if !has || m.ArriveT < earliest {
			earliest, has = m.ArriveT, true
		}
	}
	return -1, earliest, has
}

// take removes what find selects, and with it the injector-made sibling.
func (r *refQueue) take(s *MatchSpec) (*Message, int64, bool) {
	i, earliest, has := r.find(s)
	if i < 0 {
		return nil, earliest, has
	}
	m := r.q[i]
	r.q = append(r.q[:i], r.q[i+1:]...)
	if m.DupKey != 0 {
		for j, d := range r.q {
			if d.Class == m.Class && d.Src == m.Src && d.DupKey == m.DupKey {
				r.q = append(r.q[:j], r.q[j+1:]...)
				break
			}
		}
	}
	return m, 0, false
}

// ungatedEarliest is PollStateFor's report: Before is ignored.
func (r *refQueue) ungatedEarliest(s *MatchSpec) (earliest int64, has bool) {
	for _, m := range r.q {
		if refEligible(m, s) && (!has || m.ArriveT < earliest) {
			earliest, has = m.ArriveT, true
		}
	}
	return
}

const (
	mqRanks   = 6 // destination is rank 0
	mqClasses = 4
	mqTags    = 3
)

// progReader decodes a byte program; an exhausted program reads zeros.
type progReader struct {
	b []byte
	i int
}

func (p *progReader) done() bool { return p.i >= len(p.b) }

func (p *progReader) next() int {
	if p.done() {
		return 0
	}
	v := p.b[p.i]
	p.i++
	return int(v)
}

// spec decodes a MatchSpec: a class set (0 selects every class), a source
// (wildcard half the time), a time gate on the 0..255 arrival scale (open a
// quarter of the time) and an optional tag filter.
func (p *progReader) spec() *MatchSpec {
	s := &MatchSpec{Classes: ClassSet(p.next() % (1 << mqClasses)), Src: p.next() % (2 * mqRanks), Before: NoTimeGate}
	if s.Classes == 0 {
		s.Classes = AllClasses
	}
	if s.Src >= mqRanks {
		s.Src = AnySrc
	}
	if b := p.next(); b%4 != 0 {
		s.Before = int64(b)
	}
	if f := p.next() % (mqTags + 1); f != 0 {
		s.Filter = func(m *Message) bool { return m.Tag == f-1 }
	}
	return s
}

// Program builders for the hand-written corpus entries; they mirror the
// decoding above. anySrc/noGate/noFilter are the wildcard encodings.
const (
	opInject, opInjectDup, opTake, opPeek, opTakePeek, opPoll = 0, 1, 2, 3, 4, 5

	anySrc, noGate, noFilter = mqRanks, 0, 0
)

func mqInject(src, class, tag, arriveT int) []byte {
	return []byte{opInject, byte(src), byte(class), byte(tag), byte(arriveT)}
}

func mqInjectDup(src, class, tag, arriveT, delay int) []byte {
	return []byte{opInjectDup, byte(src), byte(class), byte(tag), byte(arriveT), byte(delay)}
}

// mqOp encodes a receive-side op over one or two specs, each given as
// (class mask, src, before, tag filter + 1).
func mqOp(op byte, specs ...[4]int) []byte {
	b := []byte{op}
	for _, s := range specs {
		b = append(b, byte(s[0]), byte(s[1]), byte(s[2]), byte(s[3]))
	}
	return b
}

func mqProg(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func specString(s *MatchSpec) string {
	return fmt.Sprintf("{classes=%#x src=%d before=%d filter=%v}", uint64(s.Classes), s.Src, s.Before, s.Filter != nil)
}

func msgID(m *Message) int64 {
	if m == nil {
		return -1
	}
	return int64(m.Args[0])
}

// runMatchProgram interprets prog against an endpoint (rank 0) and the
// reference model, failing on the first disagreement, then drains both and
// compares the tail.
func runMatchProgram(t *testing.T, prog []byte) {
	t.Helper()
	l := AttachNet(sim.NewWorld(mqRanks), testParams()).Layer("t")
	ep := l.Endpoint(0)
	ref := &refQueue{}
	var nextID uint64

	// newMsg appends a shadow copy to the reference and returns the pooled
	// twin for injection (pooled, so recycled structs re-enter the queues).
	newMsg := func(src int, class uint8, tag int, arriveT int64, dupKey uint64) *Message {
		fill := func(m *Message) *Message {
			m.Src, m.Dst, m.Class, m.Tag, m.ArriveT, m.DupKey = src, 0, class, tag, arriveT, dupKey
			m.Args = append(m.argStore[:0], nextID)
			return m
		}
		ref.q = append(ref.q, fill(&Message{}))
		m := fill(NewMessage())
		nextID++
		return m
	}
	sameMsg := func(step int, what string, got, want *Message) {
		t.Helper()
		if msgID(got) != msgID(want) {
			t.Fatalf("step %d: %s returned message %d, reference %d", step, what, msgID(got), msgID(want))
		}
	}
	// The activity counter moves once per arrival, so it equals nextID.
	sameState := func(step int, what string, st PollState, depth int, earliest int64, has bool) {
		t.Helper()
		if st.Depth != depth || st.Seq != nextID || st.Earliest != earliest || st.HasEarliest != has {
			t.Fatalf("step %d: %s state {seq=%d depth=%d earliest=%d/%v}, reference {seq=%d depth=%d earliest=%d/%v}",
				step, what, st.Seq, st.Depth, st.Earliest, st.HasEarliest, nextID, depth, earliest, has)
		}
	}

	pr := &progReader{b: prog}
	for step := 0; !pr.done(); step++ {
		switch op := pr.next() % 6; op {
		case opInject, opInjectDup: // the latter adds the fault injector's duplicate
			src, class, tag, at := pr.next()%mqRanks, uint8(pr.next()%mqClasses), pr.next()%mqTags, int64(pr.next())
			var dupKey uint64
			if op == opInjectDup {
				dupKey = nextID + 1
			}
			d := Delivery{Msg: newMsg(src, class, tag, at, dupKey)}
			if op == opInjectDup {
				d.Dup = newMsg(src, class, tag, at+int64(pr.next()%8), dupKey)
			}
			l.Inject(d)
		case opTake:
			s := pr.spec()
			depth := len(ref.q)
			want, earliest, has := ref.take(s)
			got, st := ep.TryRecvSpec(s)
			sameMsg(step, "TryRecvSpec"+specString(s), got, want)
			sameState(step, "TryRecvSpec"+specString(s), st, depth, earliest, has)
			if got != nil {
				got.Release()
			}
		case opPeek:
			s := pr.spec()
			var want *Message
			if i, _, _ := ref.find(s); i >= 0 {
				want = ref.q[i]
			}
			sameMsg(step, "PeekSpec"+specString(s), ep.PeekSpec(s), want)
		case opTakePeek:
			recv, peek := pr.spec(), pr.spec()
			what := "TryRecvPeek" + specString(recv) + specString(peek)
			depth := len(ref.q)
			want, earliest, has := ref.take(recv)
			var wantPeek *Message
			var pearl int64
			var phas bool
			if want == nil {
				var i int
				if i, pearl, phas = ref.find(peek); i >= 0 {
					wantPeek = ref.q[i]
				}
			}
			got, st, gotPeek, gotPearl, gotPhas := ep.TryRecvPeek(recv, peek)
			sameMsg(step, what, got, want)
			sameState(step, what, st, depth, earliest, has)
			sameMsg(step, what+" peek", gotPeek, wantPeek)
			if gotPearl != pearl || gotPhas != phas {
				t.Fatalf("step %d: %s peek earliest %d/%v, reference %d/%v", step, what, gotPearl, gotPhas, pearl, phas)
			}
			if got != nil {
				got.Release()
			}
		case opPoll:
			s := pr.spec()
			earliest, has := ref.ungatedEarliest(s)
			sameState(step, "PollStateFor"+specString(s), ep.PollStateFor(s), len(ref.q), earliest, has)
		}
	}
	all := matchAll(nil)
	for len(ref.q) > 0 {
		want, _, _ := ref.take(&all)
		got, _ := ep.TryRecvSpec(&all)
		sameMsg(-1, "drain", got, want)
		got.Release()
	}
	if n := ep.QueueLen(); n != 0 {
		t.Fatalf("endpoint still holds %d messages after the reference drained", n)
	}
}

// mqSeedPrograms are the fuzz corpus: hand-written corners plus a few
// generated interleavings, so `go test` alone (no -fuzz) covers them.
func mqSeedPrograms() [][]byte {
	all := [4]int{0, anySrc, noGate, noFilter}
	progs := [][]byte{
		{},
		// Three sources into one class; exact-source take from the middle,
		// then wildcard takes around the hole.
		mqProg(mqInject(1, 0, 0, 5), mqInject(2, 0, 1, 6), mqInject(3, 0, 2, 7),
			mqOp(opTake, [4]int{1, 2, noGate, noFilter}), mqOp(opTake, all), mqOp(opTake, all)),
		// A dup pair behind an unrelated message: taking the original must
		// sweep the sibling, leaving only the unrelated message.
		mqProg(mqInject(5, 2, 0, 1), mqInjectDup(4, 2, 1, 9, 3),
			mqOp(opTake, [4]int{0, 4, noGate, noFilter}), mqOp(opPoll, all), mqOp(opTake, all), mqOp(opTake, all)),
		// Everything in the virtual future: the failed take reports the
		// earliest arrival, the ungated poll agrees, a later gate succeeds.
		mqProg(mqInject(1, 1, 0, 200), mqInject(2, 1, 0, 101),
			mqOp(opTake, [4]int{0, anySrc, 50, noFilter}), mqOp(opPoll, all), mqOp(opTake, [4]int{0, anySrc, 150, noFilter})),
		// Two classes interleaved: a two-class spec takes the least stamp
		// across both lists, not one list first.
		mqProg(mqInject(1, 1, 0, 9), mqInject(1, 0, 0, 9), mqInject(1, 1, 0, 9),
			mqOp(opTake, [4]int{3, anySrc, noGate, noFilter}), mqOp(opTake, [4]int{3, anySrc, noGate, noFilter}), mqOp(opTake, [4]int{3, anySrc, noGate, noFilter})),
		// Fused take+peek: the take's tag filter misses, the peek hits and
		// leaves its message queued for the take that follows.
		mqProg(mqInject(2, 0, 1, 7),
			mqOp(opTakePeek, [4]int{0, anySrc, noGate, 1}, [4]int{0, anySrc, noGate, 2}), mqOp(opPeek, all), mqOp(opTake, all)),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, 600)
		rng.Read(p)
		progs = append(progs, p)
	}
	return progs
}

func FuzzMatchQueue(f *testing.F) {
	for _, p := range mqSeedPrograms() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runMatchProgram(t, prog)
	})
}

// TestMatchQueueAgainstReference is the seeded table half: longer random
// programs than the fuzz corpus carries.
func TestMatchQueueAgainstReference(t *testing.T) {
	for _, seed := range []int64{3, 17, 2014} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			prog := make([]byte, 20000)
			rand.New(rand.NewSource(seed)).Read(prog)
			runMatchProgram(t, prog)
		})
	}
}

// TestReleaseWhileQueuedPanics: a message that is still linked into a class
// list must never reach the free list — its links would be handed to the
// next NewMessage caller and silently corrupt the queue.
func TestReleaseWhileQueuedPanics(t *testing.T) {
	l := AttachNet(sim.NewWorld(2), testParams()).Layer("t")
	ep := l.Endpoint(1)
	for i := uint64(0); i < 3; i++ {
		m := NewMessage()
		m.Dst, m.Args = 1, append(m.argStore[:0], i)
		l.Inject(Delivery{Msg: m})
	}
	any := matchAll(nil)
	peeked := ep.PeekSpec(&any)
	func() {
		defer func() {
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, "still queued") {
				t.Fatalf("Release of a peeked (queued) message: recovered %v, want a still-queued panic", r)
			}
		}()
		peeked.Release()
	}()
	// The refused Release left the queue intact.
	for i := int64(0); i < 3; i++ {
		m, _ := ep.TryRecvSpec(&any)
		if msgID(m) != i {
			t.Fatalf("after the refused Release, take %d returned message %d", i, msgID(m))
		}
		m.Release()
	}
}

// TestRecycledMessageReenqueues: Release clears the list links, so a reused
// struct — here the very same one, as the pool would hand back — joins a
// queue cleanly wherever it lands.
func TestRecycledMessageReenqueues(t *testing.T) {
	l := AttachNet(sim.NewWorld(2), testParams()).Layer("t")
	ep := l.Endpoint(1)
	any := matchAll(nil)
	inject := func(m *Message, id uint64) {
		m.Dst, m.Args = 1, []uint64{id}
		l.Inject(Delivery{Msg: m})
	}
	reused := &Message{} // unpooled: Release resets it and leaves it to us
	inject(&Message{}, 0)
	inject(reused, 1)
	inject(&Message{}, 2)
	for want := int64(0); want < 2; want++ { // takes reused out of the middle of 0,1,2
		m, _ := ep.TryRecvSpec(&any)
		if msgID(m) != want {
			t.Fatalf("take returned message %d, want %d", msgID(m), want)
		}
		m.Release()
	}
	if reused.qprev != nil || reused.qnext != nil || reused.queued {
		t.Fatal("Release left list links on the message")
	}
	inject(reused, 3)
	inject(&Message{}, 4)
	for want := int64(2); want <= 4; want++ {
		m, _ := ep.TryRecvSpec(&any)
		if msgID(m) != want {
			t.Fatalf("after re-enqueue, take returned message %d, want %d", msgID(m), want)
		}
		m.Release()
	}
	if n := ep.QueueLen(); n != 0 {
		t.Fatalf("queue depth %d after draining, want 0", n)
	}
}

// TestFirstArrivalAllocIndependentOfWorldSize pins the removal of the
// per-(class, src) bucket arrays: an endpoint's first arrival used to
// allocate one bucket per rank of the world (128 KiB at P=4096, O(P²)
// world-wide); the class lists need nothing.
func TestFirstArrivalAllocIndependentOfWorldSize(t *testing.T) {
	const np, sample = 4096, 64
	l := AttachNet(sim.NewWorld(np), testParams()).Layer("t")
	msgs := make([]*Message, sample)
	for i := range msgs {
		msgs[i] = &Message{Src: np - 1, Dst: i * (np / sample), Class: 3}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for _, m := range msgs {
		l.Inject(Delivery{Msg: m})
	}
	runtime.ReadMemStats(&ms)
	if per := (ms.TotalAlloc - before) / sample; per >= 512 {
		t.Fatalf("first arrival on an endpoint of a P=%d layer allocated %d B, want < 512 (independent of P)", np, per)
	}
}
