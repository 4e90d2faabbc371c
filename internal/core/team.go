package core

import (
	"cmp"
	"fmt"
	"slices"

	"cafmpi/internal/elem"
)

// Team is a first-class group of images (CAF 2.0 teams, §2.1): a domain for
// coarray allocation, a rank namespace, and an isolated collective scope.
type Team struct {
	im  *Image
	ref TeamRef
	id  uint64

	coll    collState
	syncEvs *Events // lazy SYNC IMAGES handshake events
}

// Rank returns this image's rank within the team.
func (t *Team) Rank() int { return t.ref.Rank() }

// Size returns the number of images in the team.
func (t *Team) Size() int { return t.ref.Size() }

// WorldRank translates a team rank to a world rank.
func (t *Team) WorldRank(r int) int { return t.ref.WorldRank(r) }

// Image returns the owning image handle.
func (t *Team) Image() *Image { return t.im }

// initColl prepares the collective inbox. It must run before any AM naming
// this team can be dispatched (i.e. before the substrate's first poll).
func (t *Team) initColl() {
	t.coll.t = t
	t.coll.sig = make(map[sigKey]int64)
	t.coll.data = make(map[sigKey][]byte)
	t.coll.credits = make(map[int]int64)
}

// Split partitions the team by color, ordering each new team by (key, old
// rank) — the CAF 2.0 team_split operation. Images passing a negative color
// receive a nil team. Split is collective over t.
func (t *Team) Split(color, key int) (*Team, error) {
	id, err := t.im.newID(t)
	if err != nil {
		return nil, err
	}
	ref, err := t.im.sub.SplitTeam(t.ref, color, key)
	if err == ErrUnsupported {
		ref, err = t.genericSplit(color, key)
	}
	if err != nil {
		return nil, err
	}
	if ref == nil {
		return nil, nil
	}
	nt := &Team{im: t.im, ref: ref, id: id}
	nt.initColl()
	t.im.registerTeam(nt)
	return nt, nil
}

// genericSplit computes the membership by a hand-crafted allgather over the
// parent team and asks the substrate for a plain team handle. This is the
// CAF-GASNet path: GASNet has no communicator concept.
func (t *Team) genericSplit(color, key int) (TeamRef, error) {
	n := t.Size()
	mine := []int64{int64(color), int64(key)}
	all := make([]int64, 2*n)
	if err := t.Allgather(elem.I64Bytes(mine), elem.I64Bytes(all)); err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	type member struct{ key, oldRank int }
	var group []member
	for r := 0; r < n; r++ {
		if int(all[2*r]) == color {
			group = append(group, member{int(all[2*r+1]), r})
		}
	}
	// Old-rank order already, so a stable sort by key gives (key, old rank).
	slices.SortStableFunc(group, func(a, b member) int { return cmp.Compare(a.key, b.key) })
	worldRanks := make([]int, len(group))
	myRank := -1
	for i, m := range group {
		worldRanks[i] = t.WorldRank(m.oldRank)
		if m.oldRank == t.Rank() {
			myRank = i
		}
	}
	if myRank < 0 {
		return nil, fmt.Errorf("core: split bookkeeping lost the calling image")
	}
	return t.im.sub.MakeTeam(worldRanks, myRank)
}

// collState holds the per-team machinery for the runtime's hand-crafted
// collectives (used when the substrate has no native ones, as over GASNet):
// a signal/small-payload inbox fed by the AM dispatcher, a slotted scratch
// coarray for bulk data movement via RDMA puts, and per-peer flow-control
// credits that track scratch-slot availability.
type collState struct {
	t   *Team
	gen int

	sig  map[sigKey]int64  // (key, src) -> signals received
	data map[sigKey][]byte // (key, src) -> small payload

	// credits[peer] counts how many times this image may write into
	// peer's scratch slot for us. Every slot starts free (lazy initial
	// value 1); consuming a slot's data sends a credit back.
	credits map[int]int64

	scratch   Segment // slotted exchange space: one slot per team rank
	slotBytes int
}

type sigKey struct{ key, src int }

// creditKey is the reserved signal key carrying scratch-slot credits.
const creditKey = -1

func (c *collState) signal(key, src int) {
	if key == creditKey {
		c.credits[src] = c.creditOf(src) + 1
		return
	}
	c.sig[sigKey{key, src}]++
}

func (c *collState) deposit(key, src int, payload []byte) {
	c.data[sigKey{key, src}] = append([]byte(nil), payload...)
}

// take removes and returns the payload deposited for (key, src), or nil.
func (c *collState) take(key, src int) []byte {
	k := sigKey{key, src}
	p, ok := c.data[k]
	if !ok {
		return nil
	}
	delete(c.data, k)
	return p
}

// consumeSig consumes one signal for (key, src) if present.
func (c *collState) consumeSig(key, src int) bool {
	k := sigKey{key, src}
	if c.sig[k] > 0 {
		c.sig[k]--
		if c.sig[k] == 0 {
			delete(c.sig, k)
		}
		return true
	}
	return false
}

func (c *collState) creditOf(peer int) int64 {
	if v, ok := c.credits[peer]; ok {
		return v
	}
	return 1 // every scratch slot starts free
}

// takeCredit consumes one scratch credit for peer if available.
func (c *collState) takeCredit(peer int) bool {
	v := c.creditOf(peer)
	if v <= 0 {
		return false
	}
	c.credits[peer] = v - 1
	return true
}

// nextKey reserves a fresh collective sequence window. Each generic
// collective uses keys [base, base+keysPerOp) so rounds never collide.
const keysPerOp = 64

func (c *collState) nextKey() int {
	k := c.gen * keysPerOp
	c.gen++
	return k
}

// nextKeys reserves enough consecutive key windows for an operation that
// needs `want` distinct keys (collectives whose chunk count can exceed
// keysPerOp). Every member computes the same want from collective-uniform
// arguments, so the generation counters stay agreed team-wide.
func (c *collState) nextKeys(want int) int {
	k := c.gen * keysPerOp
	gens := (want + keysPerOp - 1) / keysPerOp
	if gens < 1 {
		gens = 1
	}
	c.gen += gens
	return k
}
