package sanitizer

import "unsafe"

// baseClock is a world-shared dense clock floor. Full-world collective
// rounds materialize one (the pointwise max of every member's deposit) and
// every member's clock rebases onto it, so after a barrier an image's
// clock is a shared pointer plus its own post-snapshot delta — O(1) owned
// memory — instead of a private O(P) array. Immutable after creation; seq
// totally orders bases so joins can adopt the newer floor.
type baseClock struct {
	seq uint64
	c   []uint64
}

// at returns the floor for component j (0 on a nil base).
func (b *baseClock) at(j int) uint64 {
	if b == nil {
		return 0
	}
	return b.c[j]
}

// vclock is one vector clock, stored as value(j) = max(base.at(j), m[j]):
// a shared dense floor plus a private delta map sized by communication
// degree, which is what keeps sanitizer memory per image flat in world
// size.
type vclock struct {
	base *baseClock
	m    map[int32]uint64
}

func newVClock(own int) *vclock {
	// Component own starts at 1 so a fresh image's accesses are NOT
	// happens-before-ordered for peers whose clocks still hold 0.
	return &vclock{m: map[int32]uint64{int32(own): 1}}
}

func (v *vclock) get(j int) uint64 {
	val := v.base.at(j)
	if e, ok := v.m[int32(j)]; ok && e > val {
		val = e
	}
	return val
}

// set installs value val for component j; callers only ever raise values.
func (v *vclock) set(j int, val uint64) { v.m[int32(j)] = val }

// bump increments component j.
func (v *vclock) bump(j int) {
	v.set(j, v.get(j)+1)
}

// clone returns a snapshot safe to publish: the base is shared (it is
// immutable), the delta copied.
func (v *vclock) clone() *vclock {
	c := &vclock{base: v.base, m: make(map[int32]uint64, len(v.m))}
	for j, e := range v.m {
		c.m[j] = e
	}
	return c
}

// join folds other into v (pointwise max). other is read-only: published
// snapshots may be joined concurrently by several acquirers.
func (v *vclock) join(o *vclock) {
	if o.base != nil && o.base != v.base {
		if v.base == nil || o.base.seq > v.base.seq {
			// Adopt the newer floor: keep only the entries of the current
			// representation that exceed it. The old floor must be scanned —
			// unlike rebaseJoin there is no domination guarantee here — but
			// bases only change at full-world rounds, so the scan is rare.
			old := v.base
			v.base = o.base
			if old != nil {
				for j, val := range old.c {
					if val > v.get(j) {
						v.m[int32(j)] = val
					}
				}
			}
			for j, e := range v.m {
				if e <= v.base.at(int(j)) {
					delete(v.m, j)
				}
			}
		} else {
			// other's floor is older: fold its entries that still exceed us.
			for j, val := range o.base.c {
				if val > v.get(j) {
					v.m[int32(j)] = val
				}
			}
		}
	}
	for j, e := range o.m {
		if e > v.get(int(j)) {
			v.m[j] = e
		}
	}
}

// rebaseJoin joins a base that is known to dominate v's current base —
// the CollExit fast path: b folds a snapshot of this very clock (every
// member of a full-world round deposits before any acquirer exits), so
// only delta entries written after that snapshot can exceed b. Owned
// memory afterwards is the surviving delta alone.
func (v *vclock) rebaseJoin(b *baseClock) {
	if b == nil {
		return
	}
	for j, e := range v.m {
		if e <= b.at(int(j)) {
			delete(v.m, j)
		}
	}
	v.base = b
}

// clockEntryBytes approximates one delta-map entry: key + value plus Go
// map bucket overhead (~1.5x headroom), mirroring obs.commCellBytes.
const clockEntryBytes = int64(unsafe.Sizeof(int32(0))+unsafe.Sizeof(uint64(0))) * 3 / 2

// memBytes is the clock's owned footprint. The shared base is counted as
// its pointer only: one base is live per synchronization generation for
// the whole world, so its O(P) array amortizes across all images (like
// the world registry itself) and does not scale any image's footprint.
func (v *vclock) memBytes() int64 {
	if v == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*v)) + int64(len(v.m))*clockEntryBytes
}

// materializeLocked folds a full-world round's deposits into one shared
// base. w.mu must be held. Deposits overwhelmingly share one base pointer,
// so each distinct base is folded once and the pass costs O(P + Σ|delta|).
func (w *World) materializeLocked(clocks []*vclock) *baseClock {
	w.baseSeq++
	b := &baseClock{seq: w.baseSeq, c: make([]uint64, w.n)}
	var folded *baseClock
	for _, c := range clocks {
		if c.base != nil && c.base != folded {
			for j, val := range c.base.c {
				if val > b.c[j] {
					b.c[j] = val
				}
			}
			folded = c.base
		}
		for j, e := range c.m {
			if e > b.c[j] {
				b.c[j] = e
			}
		}
	}
	return b
}
