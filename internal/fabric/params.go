// Package fabric models the interconnect that the MPI and GASNet layers run
// over: a LogGP-style cost model, timestamped mailboxes between images, and
// the platform presets used by the paper's evaluation (Fusion, Edison, Mira).
//
// The fabric moves real bytes between images immediately (all images share
// one address space) while charging virtual time to the participating
// clocks, so correctness is exercised by real data movement and performance
// curves come from the model.
package fabric

import "math"

// SRQModel describes the InfiniBand Shared Receive Queue behaviour that
// degrades GASNet's AM payload path on Fusion once enough processes share
// the queue (paper §4.1). When active, per-byte receive costs for AM medium
// and long payloads are multiplied by Factor.
type SRQModel struct {
	Enabled   bool
	Threshold int     // process count at which the SRQ saturates
	Factor    float64 // payload bandwidth degradation beyond the threshold
}

// Penalty returns the payload cost multiplier for a job of n processes.
func (s SRQModel) Penalty(n int) float64 {
	if !s.Enabled || n < s.Threshold || s.Factor <= 1 {
		return 1
	}
	return s.Factor
}

// MPICosts captures per-operation software overheads of the MPI
// implementation (an MPICH derivative in the paper: MVAPICH2 on Fusion,
// Cray MPICH on Edison, PAMI-backed MPICH on Mira).
type MPICosts struct {
	MatchNS     int64 // two-sided tag-matching cost per message (receive side)
	PutNS       int64 // origin overhead per RMA put
	GetNS       int64 // origin overhead per RMA get
	AtomicNS    int64 // origin overhead per accumulate/fetch-op/CAS
	FlushNS     int64 // per-target completion wait beyond outstanding timestamps
	FlushScanNS int64 // per-rank scan cost in FlushAll (MPICH flushes every rank)
	WinSetupNS  int64 // per-rank window creation cost

	// Memory model (Figure 1): MPICH derivatives preallocate per-peer eager
	// buffers and connection state; these sizes drive MemoryFootprint.
	EagerSlotsPerPeer int
	EagerSlotBytes    int
	PeerStateBytes    int
	BaseFootprint     int64

	// SparseFlush enables the foMPI-like scalable-sync mode (Gerstenberger
	// et al., "Enabling Highly-Scalable Remote Memory Access Programming
	// with MPI-3 One Sided"): windows track a per-epoch dirty-peer set and
	// FlushAll/RflushAll walk only the peers the epoch actually touched,
	// per-peer eager pools are charged on first use (MVAPICH-style
	// on-demand connections), and the flat O(P) collectives switch to tree
	// algorithms. Off by default: the paper measures the MPICH-derivative
	// behaviour (the Figure 4 per-rank scan), so the baseline stays
	// paper-faithful and bit-exact.
	SparseFlush bool
}

// GASNetCosts captures per-operation overheads of the GASNet conduit.
type GASNetCosts struct {
	PutNS         int64 // origin overhead per extended-API put
	GetNS         int64 // origin overhead per extended-API get
	AMNS          int64 // dispatch overhead per active message handler
	PollNS        int64 // cost of one poll that finds nothing
	SRQ           SRQModel
	PeerBytes     int // per-peer segment registration metadata
	BaseFootprint int64
}

// Params is the full platform description: raw network LogGP parameters,
// the compute-speed model, and the per-layer software costs.
type Params struct {
	Name string

	// Network (LogGP): a message of s bytes sent at time t occupies the
	// sender for SendOverheadNS, arrives at t+SendOverheadNS+LatencyNS+
	// s*GapPerByteNS, and costs the receiver RecvOverheadNS to extract.
	LatencyNS      int64
	GapPerByteNS   float64
	SendOverheadNS int64
	RecvOverheadNS int64
	EagerThreshold int // bytes; larger messages pay a rendezvous round trip

	// Node topology: images [k*CoresPerNode, (k+1)*CoresPerNode) share a
	// node (Table 1: Fusion 2x4, Edison 2x12, Mira 16). Same-node traffic
	// uses the intra-node latency and bandwidth (shared-memory transport)
	// instead of the wire.
	CoresPerNode   int
	IntraLatencyNS int64
	IntraGapNS     float64

	// Compute model.
	FlopNS float64 // sustained ns per double-precision flop
	MemNS  float64 // ns per byte of local memory traffic

	MPI    MPICosts
	GASNet GASNetCosts
}

// FlopTime returns the virtual cost of n floating point operations.
func (p *Params) FlopTime(n int64) int64 {
	return int64(math.Ceil(float64(n) * p.FlopNS))
}

// MemTime returns the virtual cost of moving n bytes through local memory.
func (p *Params) MemTime(n int64) int64 {
	return int64(math.Ceil(float64(n) * p.MemNS))
}

// WireTime returns the serialization time of an n-byte payload.
func (p *Params) WireTime(n int) int64 {
	return int64(math.Ceil(float64(n) * p.GapPerByteNS))
}

// SameNode reports whether images a and b share a node.
func (p *Params) SameNode(a, b int) bool {
	if p.CoresPerNode <= 0 {
		return false
	}
	return a/p.CoresPerNode == b/p.CoresPerNode
}

// PathLatency returns the one-way latency between images a and b.
func (p *Params) PathLatency(a, b int) int64 {
	if p.SameNode(a, b) {
		return p.IntraLatencyNS
	}
	return p.LatencyNS
}

// PathWireTime returns the serialization time of n bytes between a and b.
func (p *Params) PathWireTime(a, b, n int) int64 {
	if p.SameNode(a, b) {
		return int64(math.Ceil(float64(n) * p.IntraGapNS))
	}
	return p.WireTime(n)
}

// Fusion models the Argonne InfiniBand QDR cluster from Table 1 (320 nodes,
// 2x4 cores, MVAPICH2-1.9). GASNet RMA has roughly half the per-op overhead
// of MVAPICH2's MPI-3 RMA, and the IB conduit's SRQ saturates at 128
// processes (Figure 3).
var Fusion = Params{
	Name:           "fusion",
	LatencyNS:      1500,
	GapPerByteNS:   0.31, // ~3.2 GB/s per link (IB QDR)
	SendOverheadNS: 400,
	RecvOverheadNS: 400,
	EagerThreshold: 8 << 10,
	CoresPerNode:   8, // 2x4 (Table 1)
	IntraLatencyNS: 350,
	IntraGapNS:     0.12, // shared-memory copy bandwidth
	FlopNS:         0.45, // ~2.2 GFLOP/s sustained per core
	MemNS:          0.25,
	MPI: MPICosts{
		MatchNS:     350,
		PutNS:       2600,
		GetNS:       2600,
		AtomicNS:    3200,
		FlushNS:     1200,
		FlushScanNS: 35,
		WinSetupNS:  900,

		EagerSlotsPerPeer: 2,
		EagerSlotBytes:    16 << 10,
		PeerStateBytes:    1 << 10,
		BaseFootprint:     104 << 20,
	},
	GASNet: GASNetCosts{
		PutNS:  900,
		GetNS:  900,
		AMNS:   500,
		PollNS: 120,
		SRQ: SRQModel{
			Enabled:   true,
			Threshold: 128,
			Factor:    2.2,
		},
		PeerBytes:     20 << 10,
		BaseFootprint: 25 << 20,
	},
}

// Edison models the NERSC Cray XC30 from Table 1 (Aries interconnect, Cray
// MPICH 6.0.2). Cray MPI's RMA was implemented over send/receive at the
// time (paper §4.1), so MPI per-op RMA costs are markedly higher than
// GASNet's Aries conduit, while two-sided messaging and collectives are
// excellent. There is no SRQ effect on Aries.
var Edison = Params{
	Name:           "edison",
	LatencyNS:      700,
	GapPerByteNS:   0.12, // ~8 GB/s per link (Aries)
	SendOverheadNS: 250,
	RecvOverheadNS: 250,
	EagerThreshold: 8 << 10,
	CoresPerNode:   24, // 2x12 (Table 1)
	IntraLatencyNS: 250,
	IntraGapNS:     0.08,
	FlopNS:         0.12, // Ivy Bridge, ~8 GFLOP/s sustained per core
	MemNS:          0.11,
	MPI: MPICosts{
		MatchNS:     250,
		PutNS:       3300, // send/recv-emulated RMA
		GetNS:       3300,
		AtomicNS:    3800,
		FlushNS:     1000,
		FlushScanNS: 25,
		WinSetupNS:  700,

		EagerSlotsPerPeer: 2,
		EagerSlotBytes:    16 << 10,
		PeerStateBytes:    1 << 10,
		BaseFootprint:     104 << 20,
	},
	GASNet: GASNetCosts{
		PutNS:         550,
		GetNS:         900,
		AMNS:          350,
		PollNS:        90,
		SRQ:           SRQModel{},
		PeerBytes:     20 << 10,
		BaseFootprint: 25 << 20,
	},
}

// Mira models the Argonne Blue Gene/Q used for the microbenchmark figure.
// The PAMI-backed GASNet conduit has very low one-sided overheads while the
// MPICH RMA path is software-heavy; cores are slow (1.6 GHz in-order).
var Mira = Params{
	Name:           "mira",
	LatencyNS:      2200,
	GapPerByteNS:   0.56, // ~1.8 GB/s per link
	SendOverheadNS: 900,
	RecvOverheadNS: 900,
	EagerThreshold: 4 << 10,
	CoresPerNode:   16,
	IntraLatencyNS: 600,
	IntraGapNS:     0.3,
	FlopNS:         0.9,
	MemNS:          0.45,
	MPI: MPICosts{
		MatchNS:     700,
		PutNS:       15200, // software RMA: ~51k writes/s measured
		GetNS:       11800, // ~61k reads/s measured
		AtomicNS:    16000,
		FlushNS:     2600,
		FlushScanNS: 2,
		WinSetupNS:  1500,

		EagerSlotsPerPeer: 2,
		EagerSlotBytes:    8 << 10,
		PeerStateBytes:    512,
		BaseFootprint:     96 << 20,
	},
	GASNet: GASNetCosts{
		PutNS:         300,  // ~210k writes/s measured
		GetNS:         150,  // ~266k reads/s measured
		AMNS:          3500, // ~97k notifies/s measured
		PollNS:        250,
		SRQ:           SRQModel{},
		PeerBytes:     12 << 10,
		BaseFootprint: 25 << 20,
	},
}

// SparseSync reports whether the scalable-sync ("fompi-like") mode is on.
// The switch lives under the MPI costs (that layer owns the flush model the
// paper charts) but is honoured by every layer: GASNet on-demand peer
// state, core tree collectives, and the runtime fence paths.
func (p *Params) SparseSync() bool { return p.MPI.SparseFlush }

// SparseVariant returns a copy of p with the scalable-sync mode enabled,
// named "<name>-sparse". Params contains no reference types, so a value
// copy is a deep copy and the shared preset is never mutated.
func SparseVariant(p *Params) *Params {
	cp := *p
	cp.Name = p.Name + "-sparse"
	cp.MPI.SparseFlush = true
	return &cp
}

// Platforms maps preset names to their parameter sets. Each paper preset
// also registers a "<name>-sparse" fompi-like variant (see MPICosts.
// SparseFlush) so cafrun/benchsuite can select the scalable-sync mode by
// platform name alone.
var Platforms = map[string]*Params{
	"fusion": &Fusion,
	"edison": &Edison,
	"mira":   &Mira,
}

func init() {
	for _, base := range []*Params{&Fusion, &Edison, &Mira} {
		sp := SparseVariant(base)
		Platforms[sp.Name] = sp
	}
}

// Platform returns the named preset, or nil if unknown.
func Platform(name string) *Params { return Platforms[name] }
