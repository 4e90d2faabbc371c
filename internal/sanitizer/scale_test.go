package sanitizer

// Large-world scale tests, mirroring internal/obs/scale_test.go: per-image
// sanitizer memory must be a function of activity, not of world size. The
// per-image vector clock is a private delta over a shared base at every
// world size, with full-world collective rounds compressed into one shared
// base clock (vclock.go), so no per-image structure is sized by rank count.

import (
	"testing"

	"cafmpi/internal/sim"
)

// drive runs an identical per-image activity pattern on a world of n
// images and returns the registry: shadow accesses, event edges, AM edges
// to fixed nearby peers, and one full-world barrier (every image
// contributes and acquires), which is exactly the pattern that used to
// densify every clock.
func drive(t *testing.T, n int) *World {
	t.Helper()
	w := sim.NewWorld(n)
	sw := Enable(w)
	for id := 0; id < n; id++ {
		im := sw.images[id]
		peer := (id + 1) % n
		for k := 0; k < 16; k++ {
			im.LocalAccess(7, 8*k, 8, k%2 == 0, "local")
			im.RemoteWrite(7, peer, 8*k, 8, "Put")
		}
		im.EventPublish(3, peer, 0)
		im.AMPublish(peer)
	}
	for id := 0; id < n; id++ {
		im := sw.images[id]
		im.EventAcquire(3, id, 0)
		im.AMAcquire((id + n - 1) % n)
	}
	// Full-world barrier: everyone contributes, everyone acquires.
	rounds := make([]uint64, n)
	for id := 0; id < n; id++ {
		rounds[id] = sw.images[id].CollEnter(1, n, true)
	}
	for id := 0; id < n; id++ {
		sw.images[id].CollExit(1, rounds[id], true)
	}
	return sw
}

// TestImageMemoryIndependentOfWorldSize: identical activity at np=32, 128
// and 1024 must cost identical per-image bytes — no structure sized by rank
// count survives, in small worlds or large ones.
func TestImageMemoryIndependentOfWorldSize(t *testing.T) {
	small := drive(t, 32).MemMaxBytes()
	if small == 0 {
		t.Fatal("self-metering returned zero at np=32")
	}
	for _, n := range []int{128, 1024} {
		if got := drive(t, n).MemMaxBytes(); got != small {
			t.Fatalf("per-image sanitizer memory scales with world size: np=32 -> %d B, np=%d -> %d B", small, n, got)
		}
	}
}

// TestSparseClockStillDetectsRaces: an unsynchronized overlapping write
// pair is a race; the same pair ordered by an event edge is not.
func TestSparseClockStillDetectsRaces(t *testing.T) {
	const n = 65

	racy := func() *World {
		w := sim.NewWorld(n)
		sw := Enable(w)
		sw.images[1].RemoteWrite(9, 0, 0, 16, "Put")
		sw.images[2].RemoteWrite(9, 0, 8, 16, "Put")
		return sw
	}
	if got := racy().Count(); got != 1 {
		t.Fatalf("unsynchronized overlapping writes: %d finding(s), want 1", got)
	}

	ordered := func() *World {
		w := sim.NewWorld(n)
		sw := Enable(w)
		sw.images[1].RemoteWrite(9, 0, 0, 16, "Put")
		sw.images[1].EventPublish(4, 2, 0)
		sw.images[2].EventAcquire(4, 2, 0)
		sw.images[2].RemoteWrite(9, 0, 8, 16, "Put")
		return sw
	}
	if got := ordered().Count(); got != 0 {
		t.Fatalf("event-ordered writes: %d finding(s), want 0", got)
	}
}

// TestSparseBarrierOrdersAccesses exercises the shared-base compression
// path end to end: a full-world barrier must order accesses on either
// side of it (no false positive after the rebase), while leaving each
// clock a shared base plus a small delta.
func TestSparseBarrierOrdersAccesses(t *testing.T) {
	const n = 65
	w := sim.NewWorld(n)
	sw := Enable(w)
	sw.images[1].RemoteWrite(9, 0, 0, 16, "Put")
	rounds := make([]uint64, n)
	for id := 0; id < n; id++ {
		rounds[id] = sw.images[id].CollEnter(1, n, true)
	}
	for id := 0; id < n; id++ {
		sw.images[id].CollExit(1, rounds[id], true)
	}
	sw.images[2].RemoteWrite(9, 0, 8, 16, "Put")
	if got := sw.Count(); got != 0 {
		t.Fatalf("barrier-ordered writes flagged: %d finding(s), want 0", got)
	}
	for id := 0; id < n; id++ {
		vc := sw.images[id].vc
		if vc.base == nil {
			t.Fatalf("image %d did not rebase onto the round's shared base", id)
		}
		if len(vc.m) > 2 {
			t.Fatalf("image %d delta grew to %d entries after rebase", id, len(vc.m))
		}
	}
}

// TestRaceVerdictAt64And65Images: an unsynchronized overlapping write pair
// is one finding at world sizes 64 and 65 alike — the verdict does not
// depend on world size.
func TestRaceVerdictAt64And65Images(t *testing.T) {
	for _, n := range []int{64, 65} {
		w := sim.NewWorld(n)
		sw := Enable(w)
		sw.images[1].RemoteWrite(9, 0, 0, 16, "Put")
		sw.images[2].RemoteWrite(9, 0, 8, 16, "Put")
		if got := sw.Count(); got != 1 {
			t.Fatalf("n=%d: %d finding(s), want 1", n, got)
		}
	}
}
