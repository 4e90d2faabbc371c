// Package sanitizer is the dynamic PGAS data-race and RMA-usage sanitizer
// behind `cafrun -sanitize`. It shadows every coarray window with an access
// history and maintains one vector clock per image, merged at the runtime's
// synchronization points — event notify/wait, collectives, finish, active
// message delivery, cofence — to decide whether two conflicting accesses
// are ordered by happens-before. Unordered conflicts are the relaxed-
// consistency bugs MPI-3 one-sided programs are notorious for (Gerstenberger
// et al.; the paper's §3.1 mapping of coarray writes onto MPI_PUT under a
// passive lock_all epoch makes them trivially easy to write): an
// unsynchronized Put racing a local read, two images putting overlapping
// ranges, a Get overlapping a concurrent Put.
//
// The happens-before model, acquire/release edges:
//
//   - event notify -> event wait/trywait on the same slot (release: the
//     notifier's clock is published with the credit; acquire: the waiter
//     joins it). This covers SyncImages, which rides the event path.
//   - every runtime active message -> its delivery (spawned functions,
//     copy-puts and collective AMs execute on the target's goroutine
//     strictly after injection).
//   - team collectives (barrier, bcast, reduce, allreduce, allgather,
//     alltoall, and the collective allocations built on them): every
//     member joins every member's entry clock. For rooted collectives this
//     over-synchronizes — the sanitizer then misses races a bcast would
//     permit, but never reports a false positive.
//   - finish: its termination allreduce is a collective, giving the §3.5
//     "globally complete" edge.
//
// Accesses are recorded at issue with the issuing image's current clock:
// a deferred put is modeled as writing from its issue point until the
// issuer's next release, which is exactly the window in which MPI-3 allows
// the data to land.
//
// The second report class is RMA ordering misuse (the paper's §3.1/§3.5
// rules): reading the destination buffer of an implicitly synchronized Get
// before the cofence/fence that completes it, and — via hooks in
// internal/mpi — window access outside a passive-target epoch.
//
// The sanitizer is clock-pure: it never advances virtual time, so clocks
// and goldens are bit-exact with it on or off. All bookkeeping lives in one
// world-shared registry guarded by a host mutex; per-image vector clocks
// are touched only from the owning image's goroutine.
package sanitizer

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"cafmpi/internal/sim"
)

const worldKey = "sanitizer.world"

// cellCap bounds the access history kept per (coarray, owner) shadow cell;
// older records are evicted first-in-first-out. Evictions are counted and
// surfaced in the report header so silent coverage loss is visible.
const cellCap = 4096

// Access kinds.
const (
	kindWrite  uint8 = 1 << 0 // the access mutates the range
	kindRemote uint8 = 1 << 1 // issued by a non-owner through the fabric
)

// Access is one recorded window access, as shown in reports.
type Access struct {
	Image int    // issuing image (world rank)
	Op    string // "Put", "GetDeferred", "local read", ...
	Off   int    // byte offset within the owner's window
	Len   int
	Time  int64 // issuing image's virtual clock, ns
	Write bool
}

func (a Access) String() string {
	mode := "read"
	if a.Write {
		mode = "write"
	}
	return fmt.Sprintf("image %d %s [%d,%d) (%s, t=%dns)", a.Image, mode, a.Off, a.Off+a.Len, a.Op, a.Time)
}

// Report is one sanitizer finding.
type Report struct {
	Class   string // "data-race" or "rma-order"
	Coarray uint64 // runtime id of the coarray (0 when not window-scoped)
	Owner   int    // image owning the accessed window portion (-1 when n/a)
	Earlier Access // for data races: the two unordered accesses
	Later   Access
	Detail  string // for rma-order findings: the violation
}

func (r *Report) String() string {
	if r.Class == "data-race" {
		return fmt.Sprintf("data race on coarray %d, image %d's window: %s unordered with %s",
			r.Coarray, r.Owner, r.Earlier, r.Later)
	}
	return fmt.Sprintf("rma-order: %s", r.Detail)
}

// rec is the internal shadow-cell record: epoch instead of a full clock.
type rec struct {
	img   int32
	kind  uint8
	epoch uint64
	off   int
	end   int
	t     int64
	op    string
}

// cell is the bounded access history of one (coarray, owner) window.
type cell struct {
	recs    []rec
	evicted int64
}

type cellKey struct {
	co    uint64
	owner int32
}

type slotKey struct {
	evs   uint64
	owner int32
	slot  int32
}

type pairKey struct {
	src int32
	dst int32
}

type collKey struct {
	team  uint64
	round uint64
}

type collRound struct {
	clocks []*vclock
	// joined is the round's materialized shared base (full-world rounds
	// only), built once on first acquiring exit.
	joined *baseClock
	exits  int
	size   int
}

// World is the per-sim.World sanitizer registry.
type World struct {
	n      int
	images []*Image

	mu    sync.Mutex
	cells map[cellKey]*cell // guarded by mu
	// slotVCs holds one running-join clock per event slot: every publish
	// joins into it, every acquire joins from it. With counting-semaphore
	// events a credit cannot be matched to its notifier, so the FIFO pairing
	// an exact model wants is unsound (a wait could join the wrong
	// notifier's clock and miss the true edge — a false positive). The
	// running join errs only toward extra edges: it can hide a race between
	// two notifiers of a shared slot, never invent one.
	slotVCs map[slotKey]*vclock    // guarded by mu
	amVCs   map[pairKey][]*vclock  // FIFO of release clocks per AM channel; guarded by mu
	rounds  map[collKey]*collRound // guarded by mu
	reports []*Report              // guarded by mu
	seen    map[string]bool        // guarded by mu
	evicted int64
	baseSeq uint64 // orders materialized baseClocks; guarded by mu
}

// Enable returns the world's sanitizer registry, creating it on first call.
// core.Boot calls it (before constructing the substrate) when the job runs
// with Config.Sanitize.
func Enable(w *sim.World) *World {
	return w.Shared(worldKey, func() any {
		sw := &World{
			n:       w.N(),
			cells:   make(map[cellKey]*cell),
			slotVCs: make(map[slotKey]*vclock),
			amVCs:   make(map[pairKey][]*vclock),
			rounds:  make(map[collKey]*collRound),
			seen:    make(map[string]bool),
		}
		sw.images = make([]*Image, w.N())
		for i := range sw.images {
			// Base+delta clock: a fresh image owns O(1) clock state
			// regardless of world size.
			sw.images[i] = &Image{w: sw, id: i, vc: newVClock(i), collSeq: make(map[uint64]uint64)}
		}
		return sw
	}).(*World)
}

// Enabled returns the world's registry if Enable was ever called, else nil.
func Enabled(w *sim.World) *World {
	if w == nil {
		return nil
	}
	if v, ok := w.Peek(worldKey); ok {
		return v.(*World)
	}
	return nil
}

// For returns image p's sanitizer handle, or nil when sanitizing is off.
// Every method on a nil *Image is a no-op, so call sites need no guards.
func For(p *sim.Proc) *Image {
	sw := Enabled(p.World())
	if sw == nil {
		return nil
	}
	im := sw.images[p.ID()]
	im.p = p
	return im
}

// Count returns the number of distinct findings (0 on a nil registry).
func (w *World) Count() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.reports)
}

// Reports returns the findings in a deterministic order.
func (w *World) Reports() []*Report {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := append([]*Report(nil), w.reports...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Text renders the findings as the block cafrun prints after the run.
func (w *World) Text() string {
	if w == nil {
		return ""
	}
	reps := w.Reports()
	w.mu.Lock()
	evicted := w.evicted
	w.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "sanitizer: %d finding(s)\n", len(reps))
	if evicted > 0 {
		fmt.Fprintf(&b, "sanitizer: warning: %d shadow record(s) evicted (history bounded at %d per window); coverage is partial\n", evicted, cellCap)
	}
	for _, r := range reps {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// reportLocked files r once per deduplication key; w.mu must be held. Ranges and times vary across
// schedules; the key deliberately drops them so the finding set — and the
// count the seeded-race test asserts on — is schedule-independent.
func (w *World) reportLocked(r *Report) {
	a, b := r.Earlier, r.Later
	if a.Image > b.Image || (a.Image == b.Image && a.Op > b.Op) {
		a, b = b, a
	}
	key := fmt.Sprintf("%s|%d|%d|%d:%s:%v|%d:%s:%v|%s",
		r.Class, r.Coarray, r.Owner, a.Image, a.Op, a.Write, b.Image, b.Op, b.Write, r.Detail)
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.reports = append(w.reports, r)
}

// bufRange tracks a deferred-get destination buffer by host address. peer
// is the world rank the get reads from (-1 when unknown): a peer-scoped
// fence (sparse FlushAll, which only synchronizes the epoch's dirty peers)
// completes exactly the buffers whose peer it covers, and unknown-peer
// buffers only complete at a full FenceLocal.
type bufRange struct {
	lo, hi uintptr
	op     string
	t      int64
	peer   int32
}

// Image is one image's sanitizer handle. All methods are nil-safe.
type Image struct {
	w  *World
	id int
	p  *sim.Proc

	// vc is this image's vector clock; component j counts image j's
	// releases this image has acquired. Touched only from the owning
	// image's goroutine; snapshots are published under w.mu. Stored as a
	// shared base plus a private delta (see vclock.go).
	vc *vclock

	// collSeq numbers this image's collectives per team; collective
	// semantics make the numbering agree across members.
	collSeq map[uint64]uint64

	// pendingGets are implicitly synchronized get destinations, undefined
	// until the next local fence.
	pendingGets []bufRange
}

func (i *Image) now() int64 {
	if i.p != nil {
		return i.p.Now()
	}
	return 0
}

// access records one window access and reports conflicts with every stored
// access not ordered before it by happens-before.
func (i *Image) access(co uint64, owner, off, n int, kind uint8, op string) {
	if i == nil || n <= 0 {
		return
	}
	w := i.w
	cur := rec{img: int32(i.id), kind: kind, epoch: i.vc.get(i.id), off: off, end: off + n, t: i.now(), op: op}
	w.mu.Lock()
	defer w.mu.Unlock()
	key := cellKey{co: co, owner: int32(owner)}
	c := w.cells[key]
	if c == nil {
		c = &cell{}
		w.cells[key] = c
	}
	for idx := range c.recs {
		r := &c.recs[idx]
		if int(r.img) == i.id {
			continue // same image: ordered by program order
		}
		if cur.off >= r.end || r.off >= cur.end {
			continue // disjoint ranges
		}
		if cur.kind&kindWrite == 0 && r.kind&kindWrite == 0 {
			continue // read/read
		}
		if i.vc.get(int(r.img)) >= r.epoch {
			continue // ordered: r happens-before cur
		}
		w.reportLocked(&Report{
			Class:   "data-race",
			Coarray: co,
			Owner:   owner,
			Earlier: Access{Image: int(r.img), Op: r.op, Off: r.off, Len: r.end - r.off, Time: r.t, Write: r.kind&kindWrite != 0},
			Later:   Access{Image: i.id, Op: op, Off: off, Len: n, Time: cur.t, Write: kind&kindWrite != 0},
		})
	}
	// Coalesce with the latest record when it extends the same logical
	// access (same image, kind, epoch, contiguous or overlapping range), so
	// streaming writes cost one record instead of thousands.
	if len(c.recs) > 0 {
		last := &c.recs[len(c.recs)-1]
		if last.img == cur.img && last.kind == cur.kind && last.epoch == cur.epoch &&
			cur.off <= last.end && last.off <= cur.end {
			if cur.off < last.off {
				last.off = cur.off
			}
			if cur.end > last.end {
				last.end = cur.end
			}
			return
		}
	}
	if len(c.recs) >= cellCap {
		c.recs = c.recs[1:]
		c.evicted++
		w.evicted++
	}
	c.recs = append(c.recs, cur)
}

// RemoteWrite records a put-class access to owner's window of coarray co.
func (i *Image) RemoteWrite(co uint64, owner, off, n int, op string) {
	if i == nil {
		return
	}
	i.access(co, owner, off, n, kindWrite|kindRemote, op)
}

// RemoteRead records a get-class access to owner's window of coarray co.
func (i *Image) RemoteRead(co uint64, owner, off, n int, op string) {
	if i == nil {
		return
	}
	i.access(co, owner, off, n, kindRemote, op)
}

// LocalAccess records this image touching its own window portion.
func (i *Image) LocalAccess(co uint64, off, n int, write bool, op string) {
	if i == nil {
		return
	}
	var kind uint8
	if write {
		kind = kindWrite
	}
	i.access(co, i.id, off, n, kind, op)
}

// EventPublish releases this image's clock into the slot's running-join
// clock; the matching waits acquire it.
func (i *Image) EventPublish(evs uint64, owner, slot int) {
	if i == nil {
		return
	}
	snap := i.vc.clone()
	i.vc.bump(i.id)
	key := slotKey{evs: evs, owner: int32(owner), slot: int32(slot)}
	i.w.mu.Lock()
	if sv := i.w.slotVCs[key]; sv == nil {
		i.w.slotVCs[key] = snap // first publish owns the slot clock
	} else {
		sv.join(snap)
	}
	i.w.mu.Unlock()
}

// EventAcquire joins the slot's running-join clock: the waiter now
// happens-after every notify published to the slot so far.
func (i *Image) EventAcquire(evs uint64, owner, slot int) {
	if i == nil {
		return
	}
	key := slotKey{evs: evs, owner: int32(owner), slot: int32(slot)}
	i.w.mu.Lock()
	var snap *vclock
	if sv := i.w.slotVCs[key]; sv != nil {
		snap = sv.clone() // joined outside the lock
	}
	i.w.mu.Unlock()
	if snap != nil {
		i.vc.join(snap)
	}
}

// AMPublish releases this image's clock on the AM channel to dst. The
// fabric delivers a pair's AMs in order, so a FIFO per (src,dst) pairs each
// publish with its delivery.
func (i *Image) AMPublish(dst int) {
	if i == nil {
		return
	}
	snap := i.vc.clone()
	i.vc.bump(i.id)
	key := pairKey{src: int32(i.id), dst: int32(dst)}
	i.w.mu.Lock()
	i.w.amVCs[key] = append(i.w.amVCs[key], snap)
	i.w.mu.Unlock()
}

// AMAcquire joins the clock of the oldest undelivered AM from src.
func (i *Image) AMAcquire(src int) {
	if i == nil {
		return
	}
	key := pairKey{src: int32(src), dst: int32(i.id)}
	i.w.mu.Lock()
	var snap *vclock
	if q := i.w.amVCs[key]; len(q) > 0 {
		snap = q[0]
		i.w.amVCs[key] = q[1:]
	}
	i.w.mu.Unlock()
	if snap != nil {
		i.vc.join(snap)
	}
}

// CollEnter numbers this image's next collective on team and, when this
// image's entry orders other members' exits (contribute — everyone in a
// barrier/allreduce, only the root in a bcast), deposits its release clock
// for the round. Returns the round token for CollExit. size is the team
// size; collective matching-order semantics make the numbering agree
// across members.
func (i *Image) CollEnter(team uint64, size int, contribute bool) uint64 {
	if i == nil {
		return 0
	}
	round := i.collSeq[team]
	i.collSeq[team] = round + 1
	key := collKey{team: team, round: round}
	i.w.mu.Lock()
	cr := i.w.rounds[key]
	if cr == nil {
		cr = &collRound{size: size}
		i.w.rounds[key] = cr
	}
	if contribute {
		snap := i.vc.clone()
		i.vc.bump(i.id)
		cr.clocks = append(cr.clocks, snap)
	}
	i.w.mu.Unlock()
	return round
}

// CollExit joins, when this image's exit is ordered by other members'
// entries (acquire — everyone in a barrier, only the root in a reduce),
// every clock deposited for the round: by completion semantics all
// contributors have deposited before any acquiring member exits.
func (i *Image) CollExit(team uint64, round uint64, acquire bool) {
	if i == nil {
		return
	}
	key := collKey{team: team, round: round}
	i.w.mu.Lock()
	cr := i.w.rounds[key]
	var clocks []*vclock
	var joined *baseClock
	if cr != nil {
		if acquire {
			if cr.size == i.w.n && len(cr.clocks) == cr.size {
				// Full-world round: materialize one shared base (once
				// per round) instead of joining P private clocks, and
				// rebase onto it below. This is the epoch compression
				// that keeps per-image clock memory O(1) across
				// barriers: everyone's floor becomes one shared array.
				if cr.joined == nil {
					cr.joined = i.w.materializeLocked(cr.clocks)
				}
				joined = cr.joined
			} else {
				clocks = append(clocks, cr.clocks...)
			}
		}
		cr.exits++
		if cr.exits >= cr.size {
			delete(i.w.rounds, key)
		}
	}
	i.w.mu.Unlock()
	if joined != nil {
		// Sound and lossless: this image's own deposit (which dominates
		// its base) is folded into joined, so rebaseJoin's domination
		// precondition holds and only post-snapshot delta entries survive.
		i.vc.rebaseJoin(joined)
		return
	}
	for _, c := range clocks {
		i.vc.join(c)
	}
}

// NoteDeferredGet marks buf as undefined until the next local fence: it is
// the destination of an implicitly synchronized get (§3.5 — MPI_GET whose
// result is unreadable before MPI_WIN_FLUSH).
func (i *Image) NoteDeferredGet(buf []byte, op string) {
	i.NoteDeferredGetPeer(buf, -1, op)
}

// NoteDeferredGetPeer is NoteDeferredGet carrying the world rank the get
// reads from, so a peer-scoped fence can complete it precisely.
func (i *Image) NoteDeferredGetPeer(buf []byte, peer int, op string) {
	if i == nil || len(buf) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	i.pendingGets = append(i.pendingGets, bufRange{
		lo: lo, hi: lo + uintptr(len(buf)), op: op, t: i.now(), peer: int32(peer)})
}

// CheckRead reports a use of buf while it is still an unfenced get target.
func (i *Image) CheckRead(buf []byte, what string) {
	if i == nil || len(buf) == 0 || len(i.pendingGets) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	hi := lo + uintptr(len(buf))
	for _, g := range i.pendingGets {
		if lo < g.hi && g.lo < hi {
			i.w.mu.Lock()
			i.w.reportLocked(&Report{
				Class: "rma-order",
				Owner: -1,
				Detail: fmt.Sprintf("image %d reads the destination of an incomplete %s (issued t=%dns) as %s before a cofence/fence completed it",
					i.id, g.op, g.t, what),
			})
			i.w.mu.Unlock()
			return
		}
	}
}

// FenceLocal completes all implicitly synchronized operations locally: get
// destinations become defined (cofence, and the release fence inside
// notify/finish).
func (i *Image) FenceLocal() {
	if i == nil {
		return
	}
	i.pendingGets = i.pendingGets[:0]
}

// FenceLocalPeers completes implicitly synchronized gets from the given
// world ranks only. A sparse FlushAll establishes happens-before edges to
// the epoch's dirty peers alone, so gets from untouched peers (and gets
// noted without a peer) stay undefined — a read racing with one is still
// reported by CheckRead.
func (i *Image) FenceLocalPeers(peers []int) {
	if i == nil || len(i.pendingGets) == 0 {
		return
	}
	kept := i.pendingGets[:0]
	for _, g := range i.pendingGets {
		fenced := false
		if g.peer >= 0 {
			for _, p := range peers {
				if int32(p) == g.peer {
					fenced = true
					break
				}
			}
		}
		if !fenced {
			kept = append(kept, g)
		}
	}
	i.pendingGets = kept
}

// RMAViolation files an MPI-level RMA usage violation (access outside an
// epoch, flush without a lock); internal/mpi calls it when sanitizing.
func (i *Image) RMAViolation(detail string) {
	if i == nil {
		return
	}
	i.w.mu.Lock()
	i.w.reportLocked(&Report{Class: "rma-order", Owner: -1, Detail: detail})
	i.w.mu.Unlock()
}

// MemBytes is an accounting estimate of this image's owned sanitizer
// state: the handle, its vector clock (shared bases counted as pointers —
// see vclock.memBytes), collective numbering, and pending-get tracking.
// It is the source of the san_bytes_per_image gauge; the np=128→1024
// flatness test uses it to prove per-image sanitizer memory is a function
// of activity, not of world size. Read it from the owning goroutine or
// after the run.
func (i *Image) MemBytes() int64 {
	if i == nil {
		return 0
	}
	total := int64(unsafe.Sizeof(*i))
	total += i.vc.memBytes()
	total += int64(len(i.collSeq)) * clockEntryBytes
	total += int64(cap(i.pendingGets)) * int64(unsafe.Sizeof(bufRange{}))
	return total
}

// MemMaxBytes returns the largest per-image footprint (0 on nil). Post-run
// only: it reads every image's owner-private state.
func (w *World) MemMaxBytes() int64 {
	if w == nil {
		return 0
	}
	var max int64
	for _, im := range w.images {
		if b := im.MemBytes(); b > max {
			max = b
		}
	}
	return max
}
