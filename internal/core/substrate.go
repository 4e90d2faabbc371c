// Package core implements the Coarray Fortran 2.0 runtime system — the
// paper's primary contribution — over a pluggable communication substrate.
// Two substrates exist: internal/rtmpi binds the runtime to MPI-3 (the
// paper's CAF-MPI) and internal/rtgasnet binds it to GASNet (the original
// CAF-GASNet baseline).
//
// The runtime provides the CAF 2.0 feature set the paper describes:
// process images and teams, coarrays with one-sided read/write, first-class
// events (init/notify/wait/trywait), asynchronous copies with predicate/
// source/destination events (§3.3), cofence and finish (§3.5), function
// shipping, and team collectives.
package core

import (
	"errors"

	"cafmpi/internal/elem"
	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

// ErrUnsupported is returned by substrates for collective operations they
// do not provide natively; the runtime then falls back to its hand-crafted
// implementations (as the original CAF 2.0 does over GASNet, which has no
// collectives).
var ErrUnsupported = errors.New("core: operation not supported by substrate")

// TeamRef is a substrate's handle for a group of images (an MPI
// communicator, or a plain rank list for GASNet).
type TeamRef interface {
	Rank() int           // this image's rank within the team
	Size() int           // number of images in the team
	WorldRank(r int) int // translate a team rank to a world rank
}

// Segment is a substrate's handle for a slab of remotely accessible memory
// allocated collectively over a team (an MPI window or a region of the
// GASNet segment).
type Segment interface {
	Local() []byte // this image's portion
	Bytes() int
}

// Completion is the substrate handle for an asynchronous operation.
type Completion interface {
	// Test reports whether the operation has completed, without blocking.
	Test() bool
	// Wait blocks (making substrate progress) until completion.
	Wait()
}

// DeliverFunc is the runtime's active-message dispatcher. Substrates invoke
// it on the *target image's goroutine* whenever the target polls and an AM
// addressed to the runtime has arrived. args is scratch, valid only for the
// duration of the call (the dispatcher copies what it parks); ownership of
// payload transfers to the dispatcher, which may retain it.
type DeliverFunc func(src int, kind uint8, args []uint64, payload []byte)

// EventBackend is an optional substrate-native event transport. The paper's
// §3.4 weighs two designs for CAF events over MPI: one-sided
// MPI_FETCH_AND_OP notifies with MPI_COMPARE_AND_SWAP busy-waits, or
// two-sided MPI_ISEND/MPI_RECV; CAF-MPI shipped the second. A substrate
// returning a backend here implements the first, letting the runtime
// compare them (the ablation the paper leaves open).
type EventBackend interface {
	// Notify credits slot on teammate target. The caller has already run
	// the release fence.
	Notify(target, slot int) error
	// Wait consumes one credit from the local slot, blocking (and making
	// substrate progress) until one is available.
	Wait(slot int) error
	// TryWait consumes a credit if one is available.
	TryWait(slot int) (bool, error)
	// Post credits the local slot directly (self-notification).
	Post(slot int, n int64)
	Free() error
}

// Caps describes substrate capabilities that change how the runtime maps
// CAF operations (paper §3.3).
type Caps struct {
	// PutWithRemoteEventViaAM: the substrate cannot notify a target on put
	// arrival, so a put that must post a destination event ships its data
	// inside an active message instead (MPI-3's missing put-with-
	// notification, §3.3 rule 4 / §5). When false, the runtime performs an
	// RDMA put, waits for remote completion, and sends a plain notify AM.
	PutWithRemoteEventViaAM bool
}

// Substrate is the communication layer beneath the CAF 2.0 runtime. All
// image-indexed arguments use *team ranks* of the passed TeamRef except
// AMSend, which addresses world ranks.
type Substrate interface {
	Name() string
	Proc() *sim.Proc
	Caps() Caps
	// Platform exposes the machine cost model (for compute-time charges).
	Platform() *fabric.Params

	// WorldTeam returns the team of all images (TEAM_WORLD).
	WorldTeam() TeamRef
	// SplitTeam partitions t (collective); color < 0 yields a nil team.
	// Substrates without a native group concept return ErrUnsupported and
	// the runtime computes the membership itself, then calls MakeTeam.
	SplitTeam(t TeamRef, color, key int) (TeamRef, error)
	// MakeTeam wraps an explicit world-rank list as a team handle (used by
	// the runtime's fallback split). The handle may keep worldRanks; the
	// caller must not modify it afterwards.
	MakeTeam(worldRanks []int, myRank int) (TeamRef, error)

	// AllocEvents collectively creates a substrate-native event transport
	// with n slots per image, or returns ErrUnsupported to let the runtime
	// run events over active messages (the design CAF-MPI shipped, §3.4).
	AllocEvents(t TeamRef, n int, id uint64) (EventBackend, error)

	// AllocSegment collectively allocates bytes of remotely accessible
	// memory on every image of t. id is a world-unique identifier already
	// agreed across the team (substrates may use it to key their remote-
	// memory registries; MPI windows ignore it).
	AllocSegment(t TeamRef, bytes int, id uint64) (Segment, error)
	FreeSegment(s Segment) error

	// Put writes data into target's portion of s at off and blocks until
	// the write is globally visible (blocking coarray write, §3.1).
	Put(s Segment, target, off int, data []byte) error
	// Get reads from target's portion of s at off and blocks until the
	// data is valid (blocking coarray read).
	Get(s Segment, target, off int, into []byte) error
	// PutDeferred/GetDeferred are implicitly synchronized operations: they
	// return immediately and complete at the next LocalFenceScoped
	// (cofence) or ReleaseFence. (§3.5: the runtime keeps arrays of
	// request handles.)
	PutDeferred(s Segment, target, off int, data []byte) error
	GetDeferred(s Segment, target, off int, into []byte) error
	// PutAsyncLocal starts a put whose Completion signals *local*
	// completion (source buffer reusable; §3.3 rule 3 → MPI_RPUT).
	PutAsyncLocal(s Segment, target, off int, data []byte) (Completion, error)
	// GetAsync starts a get whose Completion signals both local and remote
	// completion (§3.3 rule 2 → MPI_RGET).
	GetAsync(s Segment, target, off int, into []byte) (Completion, error)

	// AMSend delivers a runtime active message to the world-rank target;
	// the target's DeliverFunc runs it at the target's next poll. args and
	// payload are consumed before AMSend returns (the AM layer buffers
	// both), so callers may reuse them immediately.
	AMSend(worldTarget int, kind uint8, args []uint64, payload []byte) error
	// Poll makes runtime progress: dispatches queued AMs.
	Poll()
	// PollUntil polls until cond holds, blocking between arrivals. It
	// returns early with a typed error when the world's failure latch
	// trips (fault-injected image crash or job cancellation); cond's
	// progress is then abandoned.
	PollUntil(cond func() bool) error

	// LocalFenceScoped completes the deferred puts and/or gets locally
	// (cofence and its optional argument, §3.5; both flags set is the
	// full cofence). Substrates tracking them together may treat any true
	// flag as a full fence.
	LocalFenceScoped(puts, gets bool) error
	// ReleaseFence completes all previously issued operations at their
	// targets (§3.4: event_notify's release barrier — MPI: WAITALL +
	// MPI_WIN_FLUSH_ALL on every touched window; GASNet: NBI sync).
	ReleaseFence() error

	// Nonblocking collectives for the CAF 2.0 asynchronous team
	// operations; substrates without them return ErrUnsupported and the
	// runtime completes the operation at issue instead (no overlap).
	AllreduceAsync(t TeamRef, in, out []byte, k elem.Kind, op elem.Op) (Completion, error)
	BcastAsync(t TeamRef, buf []byte, root int) (Completion, error)

	// Native collectives; substrates without them return ErrUnsupported
	// and the runtime hand-crafts them from puts and AMs, as the original
	// CAF 2.0 runtime does over GASNet.
	Barrier(t TeamRef) error
	Bcast(t TeamRef, buf []byte, root int) error
	Reduce(t TeamRef, in, out []byte, k elem.Kind, op elem.Op, root int) error
	Allreduce(t TeamRef, in, out []byte, k elem.Kind, op elem.Op) error
	Alltoall(t TeamRef, send, recv []byte) error
	Allgather(t TeamRef, send, recv []byte) error

	// MemoryFootprint reports the bytes of memory the substrate's runtime
	// holds on this image (Figure 1).
	MemoryFootprint() int64
}
