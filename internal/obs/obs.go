// Package obs is the runtime observability subsystem: structured per-image
// event timelines, counters/gauges, and an N×N communication matrix, all
// keyed by virtual time. It is the per-operation, per-peer visibility layer
// beneath internal/trace's coarse category accumulators — the difference
// between knowing "event_notify took 200s" and seeing *which* FlushAll scans
// and SRQ stalls produced it.
//
// Design, mirroring trace.Tracer's nil-safety contract:
//
//   - The world-wide registry (*World) is created once per sim.World by
//     Enable and found again — without creating it — by Enabled. When
//     observability is off, every handle is nil and every method on a nil
//     receiver returns immediately with no allocation, so instrumented hot
//     paths cost a pointer compare.
//   - Each image records into its own *Shard, written only from the image's
//     goroutine — lock-free by the same ownership discipline as the virtual
//     clock. Shards are merged (read) only after sim.World.Run returns,
//     which the run's WaitGroup orders.
//   - Events land in a fixed-budget ring per image: a long run keeps the
//     most recent window instead of growing without bound; the drop count
//     is reported so truncation is never silent.
//
// Scale discipline (ROADMAP item 1): nothing in a shard may be O(P). Rings
// are lazily grown up to their cap, so an idle image costs a struct, not a
// window; communication rows are sparse per-peer maps at every world size,
// so per-image memory is O(active peers). The subsystem meters itself —
// Shard.MemBytes feeds the obs_bytes_per_image gauge — so the scaling
// probes can prove the bound instead of asserting it.
package obs

import (
	"fmt"
	"sort"
	"unsafe"

	"cafmpi/internal/obs/hist"
	"cafmpi/internal/sim"
)

// Layer identifies the stack layer that recorded an event.
type Layer uint8

// Layers.
const (
	LayerFabric Layer = iota
	LayerMPI
	LayerGASNet
	LayerSubstrate
	LayerRuntime // core runtime: event notify/wait, above the substrates
	numLayers
)

var layerNames = [...]string{"fabric", "mpi", "gasnet", "substrate", "runtime"}

func (l Layer) String() string {
	if int(l) >= len(layerNames) {
		return fmt.Sprintf("Layer(%d)", int(l))
	}
	return layerNames[l]
}

// Op identifies the kind of operation an event records.
type Op uint8

// Ops.
const (
	OpInject          Op = iota // fabric: message injection (eager or rendezvous)
	OpDeliver                   // fabric: eager message matched/absorbed
	OpRendezvousMatch           // fabric: rendezvous message matched (round trip)
	OpRMAPut                    // fabric: one-sided write wire transfer
	OpPut                       // mpi/gasnet/substrate: one-sided write issue
	OpGet                       // mpi/gasnet/substrate: one-sided read
	OpAccumulate                // mpi: atomic accumulate / fetch-op / CAS
	OpFlush                     // mpi: MPI_WIN_FLUSH
	OpFlushAll                  // mpi: MPI_WIN_FLUSH_ALL (tag = ranks scanned)
	OpLockAll                   // mpi: MPI_WIN_LOCK_ALL
	OpSend                      // mpi: two-sided send issue
	OpRecv                      // mpi: two-sided receive delivery
	OpAMSend                    // gasnet/substrate: active-message send
	OpAMDeliver                 // gasnet: active-message delivery (incl. SRQ stall)
	OpBarrier                   // gasnet: dissemination barrier
	OpNBISync                   // gasnet: implicit-handle sync (tag = ops synced)
	OpFence                     // substrate: release/local fence
	OpEventNotify               // runtime: event_notify (fence + notification AM)
	OpEventWait                 // runtime: event_wait blocking span (tag = slot)
	OpFault                     // fabric: injected fault(s) on a send (drop/retry/dup/delay)
	OpCrash                     // fabric: image hit a fault-plan crash point (last event before death)
	numOps
)

var opNames = [...]string{
	"inject", "deliver", "rdv_match", "rma_put",
	"put", "get", "accumulate", "flush", "flush_all", "lock_all",
	"send", "recv", "am_send", "am_deliver", "barrier", "nbi_sync", "fence",
	"event_notify", "event_wait", "fault", "crash",
}

func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Counter indexes the counter/gauge registry. Most entries are monotone
// counters (merged across images by summation); entries for which IsGauge
// reports true are high-water marks (merged by max).
type Counter int

// Counters and gauges.
const (
	CtrMsgsSent Counter = iota
	CtrMsgsRecv
	CtrBytesSent
	CtrBytesRecv
	CtrEagerMsgs
	CtrRendezvousMsgs
	CtrRDMAPuts
	CtrRDMAGets
	CtrRDMAAtomics
	CtrRDMABytes
	CtrAMsSent
	CtrAMsDelivered
	CtrSRQStallNS
	CtrSRQStalls
	CtrFlushCalls
	CtrFlushAllCalls
	CtrFlushAllScannedOps
	CtrRflushAllCalls
	CtrLockAllCalls
	CtrNBISyncs
	CtrPolls
	CtrUnexpectedDepthMax   // gauge: deepest unexpected-message queue seen
	CtrPendingRMAMax        // gauge: most unflushed RMA ops outstanding at once
	CtrPoolBytesInFlightMax // gauge: most pooled payload bytes checked out at once
	CtrFaultsInjected       // fault events injected (drops, dups, delays, reorders, ...)
	CtrFaultRetries         // retransmissions the delivery protocol performed
	CtrFaultRetryNS         // virtual ns senders spent in ack timeouts and backoff
	CtrFaultDedupDrops      // duplicate copies suppressed by the receive-side sweep
	CtrObsBytesPerImage     // gauge: the obs subsystem's own memory on the largest shard
	CtrSanBytesPerImage     // gauge: the sanitizer's shadow-state memory on the largest image
	CtrHostGCPauseNS        // gauge: summed host GC stop-the-world pause (wallprof)
	CtrHostSchedLatP99NS    // gauge: host scheduler p99 runnable-wait (wallprof)
	CtrHostGoroutineMax     // gauge: peak live goroutines during the run (wallprof)
	numCounters
)

var counterNames = [...]string{
	"msgs_sent",
	"msgs_recv",
	"bytes_sent",
	"bytes_recv",
	"eager_msgs",
	"rendezvous_msgs",
	"rdma_puts",
	"rdma_gets",
	"rdma_atomics",
	"rdma_bytes",
	"ams_sent",
	"ams_delivered",
	"srq_stall_ns",
	"srq_stalls",
	"flush_calls",
	"flushall_calls",
	"flushall_scanned_ops",
	"rflushall_calls",
	"lockall_calls",
	"nbi_syncs",
	"polls",
	"unexpected_queue_max",
	"pending_rma_max",
	"pool_bytes_inflight_max",
	"faults_injected",
	"fault_retries",
	"fault_retry_wait_ns",
	"fault_dedup_drops",
	"obs_bytes_per_image",
	"san_bytes_per_image",
	"host_gc_pause_ns",
	"host_sched_p99_ns",
	"host_goroutines_max",
}

func (c Counter) String() string {
	if c < 0 || int(c) >= len(counterNames) {
		return fmt.Sprintf("Counter(%d)", int(c))
	}
	return counterNames[c]
}

// IsGauge reports whether c is a high-water gauge (merged by max) rather
// than a monotone counter (merged by sum).
func (c Counter) IsGauge() bool {
	return c == CtrUnexpectedDepthMax || c == CtrPendingRMAMax ||
		c == CtrPoolBytesInFlightMax || c == CtrObsBytesPerImage ||
		c == CtrSanBytesPerImage || c == CtrHostGCPauseNS ||
		c == CtrHostSchedLatP99NS || c == CtrHostGoroutineMax
}

// IsVolatile reports whether c depends on goroutine scheduling or host
// behaviour rather than on the program and fault plan alone. Volatile
// counters (poll spins, high-water gauges, the obs self-meter) are excluded
// from artifacts that must be byte-identical across runs, such as the flight
// recorder's deterministic postmortem sections.
func (c Counter) IsVolatile() bool {
	return c.IsGauge() || c == CtrPolls
}

// Counters returns all counters in declaration order.
func Counters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Component is a LogGP-style cost component, the unit of blame in the
// critical-path decomposition: o (CPU overhead), L (wire latency), G
// (bandwidth/serialization), g (NIC queueing gap), plus the runtime-level
// costs the paper's analysis names — tag matching, SRQ stalls, flush_all's
// linear rank scan, flush completion waits, and event-wait blocking.
// CompCompute is everything in between edges: application computation and
// idle polling.
type Component uint8

// Components.
const (
	CompCompute   Component = iota // application compute / idle between edges
	CompOverhead                   // o: per-message CPU overhead (send+recv)
	CompLatency                    // L: wire latency
	CompBandwidth                  // G: serialization / wire occupancy
	CompGap                        // g: NIC queueing behind other transfers
	CompMatch                      // receive-side tag matching / AM dispatch
	CompSRQStall                   // GASNet shared-receive-queue saturation stall
	CompFlushScan                  // MPI flush_all linear per-rank scan
	CompFlushWait                  // blocking on remote completion of own RMA
	CompEventWait                  // event_wait blocking (fallback attribution)
	NumComponents
)

var componentNames = [...]string{
	"compute", "o_overhead", "L_latency", "G_bandwidth", "g_nic_gap",
	"match", "srq_stall", "flush_scan", "flush_wait", "event_wait",
}

func (c Component) String() string {
	if int(c) >= len(componentNames) {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return componentNames[c]
}

// CompSpan is one component's share of an edge's covered interval.
type CompSpan struct {
	NS int64
	C  Component
}

// MaxEdgeComps bounds the per-edge decomposition (a blocked eager delivery
// needs L+G+g+o+match+stall).
const MaxEdgeComps = 6

// Edge is one happens-before record for the critical-path walker: the
// operation covered virtual time [Start,End] on the recording image, and —
// when Jump is set — was enabled by image Peer at Peer-local time SrcT
// (message injection, event notify), so the walker crosses images there.
// Comps decompose the covered interval ([SrcT,End] for jumps, [Start,End]
// otherwise); any remainder is attributed to CompCompute.
type Edge struct {
	Start  int64
	End    int64
	SrcT   int64 // enabler's virtual time; meaningful when Jump
	Layer  Layer
	Op     Op
	Peer   int32 // enabling image (world rank); -1 when local
	Jump   bool  // completion was constrained by Peer: walk to (Peer, SrcT)
	NComps uint8
	Comps  [MaxEdgeComps]CompSpan
}

// AddComp appends ns of component c to the edge's decomposition, merging
// with an existing span of the same component and dropping non-positive
// spans. Silently drops overflow beyond MaxEdgeComps (the walker attributes
// the remainder to compute).
func (e *Edge) AddComp(c Component, ns int64) {
	if ns <= 0 {
		return
	}
	for i := 0; i < int(e.NComps); i++ {
		if e.Comps[i].C == c {
			e.Comps[i].NS += ns
			return
		}
	}
	if int(e.NComps) < MaxEdgeComps {
		e.Comps[e.NComps] = CompSpan{NS: ns, C: c}
		e.NComps++
	}
}

// Event is one structured timeline entry, stamped with virtual nanoseconds.
type Event struct {
	Layer Layer
	Op    Op
	Peer  int32 // remote image (world rank), -1 when not peer-directed
	Tag   int32 // op-specific detail: MPI tag, handler id, scan length, ...
	Bytes int64
	Start int64 // virtual ns
	End   int64 // virtual ns
}

// DefaultRingCap is the per-image event ring capacity when Enable is called
// with cap <= 0.
const DefaultRingCap = 4096

// DefaultEdgeRingCap is the per-image happens-before edge ring capacity.
// Edges are denser than events (every message produces an inject and a
// delivery edge) and the critical-path walker degrades to unattributed time
// where they have wrapped, so the ring is larger; it also scales up with an
// explicitly enlarged event ring.
const DefaultEdgeRingCap = 16384

// DenseCommThreshold is the world size at or below which exports render
// the full N×N communication matrix. It is a rendering rule only: shards
// always store comm rows sparsely, so an image talking to k peers costs
// O(k) — not O(P) — and above it the matrix never materializes anywhere.
const DenseCommThreshold = 64

// minRingAlloc is the initial backing-slice length of a lazily grown ring.
const minRingAlloc = 64

const worldKey = "obs.world"

// World is the per-sim.World observability registry: one shard per image.
type World struct {
	n       int
	ringCap int
	shards  []*Shard
}

// Enable returns the world's observability registry, creating it (with the
// given per-image ring capacity) on first call. Later calls — from the other
// images booting — return the same registry and ignore ringCap. It must be
// called before the instrumented layers attach (core.Boot enables it before
// constructing the substrate), so layers can cache their shard once.
//
// Shards start near-empty: rings grow geometrically up to their cap as
// events arrive, and comm rows are sparse maps, so enabling observability
// on a large, mostly idle world costs per-image kilobytes, not megabytes.
func Enable(w *sim.World, ringCap int) *World {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	edgeCap := DefaultEdgeRingCap
	if ringCap > edgeCap {
		edgeCap = ringCap
	}
	return w.Shared(worldKey, func() any {
		ow := &World{n: w.N(), ringCap: ringCap, shards: make([]*Shard, w.N())}
		for i := range ow.shards {
			ow.shards[i] = &Shard{ringCap: ringCap, edgeCap: edgeCap}
		}
		return ow
	}).(*World)
}

// Enabled returns the world's registry if Enable was ever called on it, and
// nil otherwise — without creating anything. Layers call this at attach time
// and cache the (possibly nil) result.
func Enabled(w *sim.World) *World {
	if w == nil {
		return nil
	}
	if v, ok := w.Peek(worldKey); ok {
		return v.(*World)
	}
	return nil
}

// For returns image p's shard, or nil when observability is off. The result
// must only be written from p's goroutine.
func For(p *sim.Proc) *Shard {
	return Enabled(p.World()).Shard(p.ID())
}

// N returns the world size (0 on a nil registry).
func (w *World) N() int {
	if w == nil {
		return 0
	}
	return w.n
}

// Shard returns image i's shard (nil on a nil registry).
func (w *World) Shard(i int) *Shard {
	if w == nil {
		return nil
	}
	return w.shards[i]
}

// commCell is one comm-row entry: traffic from this shard's image to a
// single destination.
type commCell struct {
	count int64
	bytes int64
}

// PeerStat is one exported comm-row entry: traffic from a source image to
// destination Dst. Exports sort by Dst (and by Count for top-k views), so
// the rendering is deterministic regardless of map iteration order.
type PeerStat struct {
	Dst   int   `json:"dst"`
	Count int64 `json:"count"`
	Bytes int64 `json:"bytes"`
}

// Shard is one image's lock-free recording surface. All mutating methods are
// nil-safe no-ops and must otherwise be called only from the owning image's
// goroutine.
//
// Rings are lazily grown: they start nil and double from minRingAlloc up to
// their cap as entries arrive, then wrap. Because growth only happens while
// total == len(ring), the invariant "total > len(ring) implies len(ring) ==
// cap" holds, so the drop/retention arithmetic below is oblivious to whether
// the ring is still growing.
type Shard struct {
	ring     []Event
	ringCap  int
	total    uint64 // events ever recorded (ring wraps at ringCap)
	edges    []Edge
	edgeCap  int
	edgeTot  uint64 // edges ever recorded (ring wraps at edgeCap)
	counters [numCounters]int64
	comm     map[int32]commCell // comm row by destination; allocated on first CommAdd
	hists    [numLayers][numOps]*hist.Hist
}

// ringPut appends v to a lazily grown ring and returns the (possibly
// reallocated) backing slice. The ring doubles from minRingAlloc up to capN
// while it is still filling, then wraps in place.
func ringPut[T any](ring []T, total uint64, capN int, v T) []T {
	if len(ring) < capN && total == uint64(len(ring)) {
		newLen := len(ring) * 2
		if newLen < minRingAlloc {
			newLen = minRingAlloc
		}
		if newLen > capN {
			newLen = capN
		}
		grown := make([]T, newLen)
		copy(grown, ring)
		ring = grown
	}
	ring[total%uint64(len(ring))] = v
	return ring
}

// Record appends a structured event to the ring, evicting the oldest entry
// once the ring is full, and feeds the (layer, op) latency histogram.
func (s *Shard) Record(layer Layer, op Op, peer, bytes, tag int, start, end int64) {
	if s == nil {
		return
	}
	s.ring = ringPut(s.ring, s.total, s.ringCap, Event{
		Layer: layer, Op: op,
		Peer: int32(peer), Tag: int32(tag), Bytes: int64(bytes),
		Start: start, End: end,
	})
	s.total++
	h := s.hists[layer][op]
	if h == nil {
		h = hist.New()
		s.hists[layer][op] = h
	}
	h.Record(end - start)
}

// RecordEdge appends a happens-before edge to the edge ring, evicting the
// oldest entry once the ring is full.
func (s *Shard) RecordEdge(e Edge) {
	if s == nil {
		return
	}
	s.edges = ringPut(s.edges, s.edgeTot, s.edgeCap, e)
	s.edgeTot++
}

// Hist returns the (layer, op) latency histogram, nil when no event of that
// class was recorded.
func (s *Shard) Hist(layer Layer, op Op) *hist.Hist {
	if s == nil {
		return nil
	}
	return s.hists[layer][op]
}

// EdgesRecorded returns how many edges were ever recorded, including
// dropped ones.
func (s *Shard) EdgesRecorded() uint64 {
	if s == nil {
		return 0
	}
	return s.edgeTot
}

// EdgesDropped returns how many edges were evicted by ring wrap-around.
func (s *Shard) EdgesDropped() uint64 {
	if s == nil {
		return 0
	}
	if s.edgeTot <= uint64(len(s.edges)) {
		return 0
	}
	return s.edgeTot - uint64(len(s.edges))
}

// Edges returns the retained edges, oldest first (nondecreasing End, since
// each edge ends at its recording image's current clock). The slice is
// freshly allocated; call only after the world's Run has returned.
func (s *Shard) Edges() []Edge {
	if s == nil {
		return nil
	}
	n := s.edgeTot
	capU := uint64(len(s.edges))
	if n <= capU {
		return append([]Edge(nil), s.edges[:n]...)
	}
	out := make([]Edge, 0, capU)
	start := n % capU
	out = append(out, s.edges[start:]...)
	out = append(out, s.edges[:start]...)
	return out
}

// Add increments counter c by d.
func (s *Shard) Add(c Counter, d int64) {
	if s == nil {
		return
	}
	s.counters[c] += d
}

// Max raises gauge c to v if v exceeds the current high-water mark.
func (s *Shard) Max(c Counter, v int64) {
	if s == nil {
		return
	}
	if v > s.counters[c] {
		s.counters[c] = v
	}
}

// CommAdd charges one operation of the given size to the dst column of this
// image's communication-matrix row, a per-peer map allocated on first use,
// so an image's comm state costs O(peers actually talked to).
func (s *Shard) CommAdd(dst int, bytes int64) {
	if s == nil {
		return
	}
	if s.comm == nil {
		s.comm = make(map[int32]commCell)
	}
	c := s.comm[int32(dst)]
	c.count++
	c.bytes += bytes
	s.comm[int32(dst)] = c
}

// CommPeers returns the number of destinations this image has sent to.
func (s *Shard) CommPeers() int {
	if s == nil {
		return 0
	}
	return len(s.comm)
}

// CommEntries returns the image's comm row as a slice of peer entries
// sorted by destination rank. Call only after Run has returned.
func (s *Shard) CommEntries() []PeerStat {
	if s == nil {
		return nil
	}
	out := make([]PeerStat, 0, len(s.comm))
	for dst, c := range s.comm {
		out = append(out, PeerStat{Dst: int(dst), Count: c.count, Bytes: c.bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dst < out[j].Dst })
	return out
}

// RingCap returns the event ring's capacity (its maximum size, not the
// currently allocated backing length).
func (s *Shard) RingCap() int {
	if s == nil {
		return 0
	}
	return s.ringCap
}

// commCellBytes approximates the per-entry footprint of the comm map: key + value plus Go map bucket overhead (~1.5x headroom).
const commCellBytes = int64(unsafe.Sizeof(int32(0))+unsafe.Sizeof(commCell{})) * 3 / 2

// MemBytes returns an accounting estimate of this shard's memory footprint:
// the struct itself, ring backing arrays at their current (lazily grown)
// lengths, comm-row map entries, and allocated
// histograms. It is the source of the obs_bytes_per_image gauge; the scaling
// probes use it to demonstrate that per-image obs memory is a function of
// activity, not of world size.
func (s *Shard) MemBytes() int64 {
	if s == nil {
		return 0
	}
	total := int64(unsafe.Sizeof(*s))
	total += int64(len(s.ring)) * int64(unsafe.Sizeof(Event{}))
	total += int64(len(s.edges)) * int64(unsafe.Sizeof(Edge{}))
	total += int64(len(s.comm)) * commCellBytes
	for i := range s.hists {
		for j := range s.hists[i] {
			if s.hists[i][j] != nil {
				total += int64(unsafe.Sizeof(hist.Hist{}))
			}
		}
	}
	return total
}

// Counter returns the current value of c (0 on a nil shard).
func (s *Shard) Counter(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.counters[c]
}

// Recorded returns how many events were ever recorded, including dropped
// ones.
func (s *Shard) Recorded() uint64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Dropped returns how many events were evicted by ring wrap-around.
func (s *Shard) Dropped() uint64 {
	if s == nil {
		return 0
	}
	if s.total <= uint64(len(s.ring)) {
		return 0
	}
	return s.total - uint64(len(s.ring))
}

// Events returns the retained events, oldest first. The slice is freshly
// allocated; it is safe to call after the world's Run has returned.
func (s *Shard) Events() []Event {
	if s == nil {
		return nil
	}
	n := s.total
	capU := uint64(len(s.ring))
	if n <= capU {
		return append([]Event(nil), s.ring[:n]...)
	}
	out := make([]Event, 0, capU)
	start := n % capU // oldest retained entry
	out = append(out, s.ring[start:]...)
	out = append(out, s.ring[:start]...)
	return out
}
