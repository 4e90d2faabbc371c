// Package cafmodel is the shared semantic model of the CAF runtime consumed
// by the interprocedural caflint passes (barriermatch, epochcheck,
// lockorder). It names, by (package base, receiver type, method), the calls
// that matter to synchronization discipline: collectives every image must
// reach, rank sources that make control flow image-dependent, RMA operations
// that are only defined inside a passive-target epoch, and the fences that
// complete deferred transfers.
//
// Matching is deliberately by base name and type name rather than by full
// import path: analysistest fixtures cannot import the real cafmpi packages,
// so they use stand-in packages with the same base names — the established
// repo idiom (see analysis.PkgBase callers in the intraprocedural passes).
package cafmodel

import (
	"go/types"

	"cafmpi/internal/analysis"
)

// Key identifies a function the model knows about. Recv is the receiver's
// type name without pointer ("" for package-level functions).
type Key struct {
	Pkg  string // package base name: "core", "mpi", "gasnet", "sim"
	Recv string
	Name string
}

// KeyOf maps a resolved callee to its model key (zero Key for nil).
func KeyOf(fn *types.Func) Key {
	if fn == nil {
		return Key{}
	}
	k := Key{Pkg: analysis.PkgBase(fn.Pkg()), Name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			k.Recv = n.Obj().Name()
		}
	}
	return k
}

// Collectives are operations every image of the team/world must reach: a
// rank-dependent path around one is a structural deadlock.
var Collectives = map[Key]bool{
	// core.Team collectives and co_* intrinsics.
	{"core", "Team", "Barrier"}:        true,
	{"core", "Team", "Bcast"}:          true,
	{"core", "Team", "Reduce"}:         true,
	{"core", "Team", "Allreduce"}:      true,
	{"core", "Team", "Allgather"}:      true,
	{"core", "Team", "Alltoall"}:       true,
	{"core", "Team", "AllreduceAsync"}: true,
	{"core", "Team", "BcastAsync"}:     true,
	{"core", "Team", "CoSumF64"}:       true,
	{"core", "Team", "CoSumI64"}:       true,
	{"core", "Team", "CoMaxF64"}:       true,
	{"core", "Team", "CoMaxI64"}:       true,
	{"core", "Team", "CoMinF64"}:       true,
	{"core", "Team", "CoMinI64"}:       true,
	{"core", "Team", "CoBroadcastF64"}: true,
	{"core", "Team", "CoBroadcastI64"}: true,
	{"core", "Team", "Split"}:          true,
	// mpi.Comm blocking collectives (tree variants route through these).
	{"mpi", "Comm", "Barrier"}:   true,
	{"mpi", "Comm", "Bcast"}:     true,
	{"mpi", "Comm", "Reduce"}:    true,
	{"mpi", "Comm", "Allreduce"}: true,
	{"mpi", "Comm", "Allgather"}: true,
	{"mpi", "Comm", "Alltoall"}:  true,
	{"mpi", "Comm", "Dup"}:       true,
	{"mpi", "Comm", "Split"}:     true,
	// Window lifecycle is collective over the communicator.
	{"mpi", "", "WinAllocate"}: true,
	{"mpi", "Win", "Free"}:     true,
	// gasnet split-phase barrier: both halves are collective.
	{"gasnet", "Ep", "Barrier"}:       true,
	{"gasnet", "Ep", "BarrierNotify"}: true,
	{"gasnet", "Ep", "BarrierWait"}:   true,
}

// RankSources are calls whose result identifies the calling image: a branch
// on one makes the guarded region rank-dependent.
var RankSources = map[Key]bool{
	{"core", "Image", "ID"}:  true,
	{"core", "Team", "Rank"}: true,
	{"mpi", "Comm", "Rank"}:  true,
	{"sim", "Proc", "ID"}:    true,
	{"caf", "", "ThisImage"}: true, // paper-surface name, should it ever land
}

// EpochOpen calls open a passive-target access epoch on their receiver.
var EpochOpen = map[Key]bool{
	{"mpi", "Win", "LockAll"}: true,
}

// EpochClose calls end the epoch on their receiver.
var EpochClose = map[Key]bool{
	{"mpi", "Win", "UnlockAll"}: true,
}

// RMAOps are window operations defined only inside an epoch. The value
// reports whether the op leaves the window dirty (outstanding transfer that
// a Flush must complete before the epoch closes).
var RMAOps = map[Key]bool{
	{"mpi", "Win", "Put"}:            true,
	{"mpi", "Win", "Get"}:            true,
	{"mpi", "Win", "Rput"}:           true,
	{"mpi", "Win", "Rget"}:           true,
	{"mpi", "Win", "Accumulate"}:     true,
	{"mpi", "Win", "GetAccumulate"}:  true,
	{"mpi", "Win", "FetchAndOp"}:     true,
	{"mpi", "Win", "CompareAndSwap"}: true,
}

// WinFlush calls complete outstanding RMA on their receiver window.
var WinFlush = map[Key]bool{
	{"mpi", "Win", "Flush"}:     true,
	{"mpi", "Win", "FlushAll"}:  true,
	{"mpi", "Win", "RflushAll"}: true,
}

// WinCreators are the calls whose result is a window in the closed state.
var WinCreators = map[Key]bool{
	{"mpi", "", "WinAllocate"}: true,
}

// DeferredGets start a transfer into their destination buffer that is
// undefined to read until a fence. The value is the index of the destination
// buffer argument.
var DeferredGets = map[Key]int{
	{"core", "Coarray", "GetDeferred"}:   2,
	{"gasnet", "Ep", "GetRegisteredNBI"}: 3,
}

// Fences complete every outstanding deferred transfer of the calling image.
// Collectives fence too (the runtime release-fences before synchronizing);
// passes must treat Collectives ∪ Fences as the completion set.
var Fences = map[Key]bool{
	{"core", "Image", "Cofence"}:       true,
	{"core", "Image", "CofenceScoped"}: true,
	{"core", "Events", "Notify"}:       true,
	{"core", "Events", "Wait"}:         true,
	{"core", "Team", "SyncImages"}:     true,
	{"gasnet", "Ep", "SyncNBIAll"}:     true,
}

// IsFence reports whether k completes deferred transfers (fence or
// collective).
func IsFence(k Key) bool { return Fences[k] || Collectives[k] }
