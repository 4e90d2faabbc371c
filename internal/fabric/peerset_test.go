package fabric

import (
	"reflect"
	"sort"
	"testing"
)

// setLen and setHas observe a set's members directly; the runtime only
// ever adds, removes, clears and walks.
func setLen(s *PeerSet) int { return len(s.m) }

func setHas(s *PeerSet, r int) bool {
	_, ok := s.m[int32(r)]
	return ok
}

func TestPeerSetBasics(t *testing.T) {
	for _, n := range []int{8, 64, 65, 4096} {
		var s PeerSet
		s.Init(n)
		if !s.Add(n - 1) {
			t.Fatalf("n=%d: first Add(%d) should be new", n, n-1)
		}
		if s.Add(n - 1) {
			t.Fatalf("n=%d: second Add(%d) should not be new", n, n-1)
		}
		s.Add(0)
		s.Add(n / 2)
		if got := setLen(&s); got != 3 {
			t.Fatalf("n=%d: Len=%d, want 3", n, got)
		}
		if !setHas(&s, 0) || !setHas(&s, n/2) || !setHas(&s, n-1) || setHas(&s, 1) {
			t.Fatalf("n=%d: membership wrong", n)
		}
		// Out-of-range ranks are rejected, never counted.
		if s.Add(-1) || s.Add(n) || setHas(&s, -1) || setHas(&s, n) {
			t.Fatalf("n=%d: out-of-range ranks must be rejected", n)
		}
		s.Remove(n / 2)
		if setHas(&s, n/2) || setLen(&s) != 2 {
			t.Fatalf("n=%d: Remove(%d) failed", n, n/2)
		}
		s.Remove(n / 2) // idempotent
		if setLen(&s) != 2 {
			t.Fatalf("n=%d: double Remove changed Len", n)
		}
		s.Clear()
		if setLen(&s) != 0 || setHas(&s, 0) || setHas(&s, n-1) {
			t.Fatalf("n=%d: Clear left members behind", n)
		}
		if !s.Add(0) {
			t.Fatalf("n=%d: Add after Clear should be new", n)
		}
	}
}

func TestPeerSetAppendSortedAscending(t *testing.T) {
	// Sorted iteration is load-bearing for clock determinism: insert in a
	// scrambled order and demand ascending output.
	for _, n := range []int{64, 4096} {
		var s PeerSet
		s.Init(n)
		ranks := []int{n - 1, 3, 0, n / 2, 17 % n, n - 2}
		for _, r := range ranks {
			s.Add(r)
		}
		want := append([]int(nil), ranks...)
		sort.Ints(want)
		// Dedup (17%n may collide for small n).
		uniq := want[:0]
		for i, r := range want {
			if i == 0 || r != want[i-1] {
				uniq = append(uniq, r)
			}
		}
		prefix := []int{-7}
		got := s.AppendSorted(prefix)
		if !reflect.DeepEqual(got[:1], []int{-7}) {
			t.Fatalf("n=%d: AppendSorted clobbered the prefix: %v", n, got)
		}
		if !reflect.DeepEqual(got[1:], uniq) {
			t.Fatalf("n=%d: AppendSorted=%v, want %v", n, got[1:], uniq)
		}
	}
}

// TestPeerSetBoundary63_64_65 drives insert, duplicate insert, remove,
// clear, refill and AppendSorted at world sizes around a word boundary,
// with the top valid rank always among the members.
func TestPeerSetBoundary63_64_65(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		var s PeerSet
		s.Init(n)

		// Boundary-sensitive members: rank 0, the top valid rank, a middle
		// one. Duplicates must report not-added.
		hi := n - 1
		for _, r := range []int{0, hi, 17} {
			if !s.Add(r) {
				t.Fatalf("n=%d: Add(%d) = false on first insert", n, r)
			}
			if s.Add(r) {
				t.Fatalf("n=%d: Add(%d) = true on duplicate", n, r)
			}
		}
		if setLen(&s) != 3 || !setHas(&s, hi) {
			t.Fatalf("n=%d: Len=%d Has(%d)=%v after inserts", n, setLen(&s), hi, setHas(&s, hi))
		}
		if got, want := s.AppendSorted(nil), []int{0, 17, hi}; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: AppendSorted=%v, want %v", n, got, want)
		}

		// Remove the top rank.
		s.Remove(hi)
		if setHas(&s, hi) || setLen(&s) != 2 {
			t.Fatalf("n=%d: Remove(%d) left Has=%v Len=%d", n, hi, setHas(&s, hi), setLen(&s))
		}

		// Refill after Clear must not resurrect stale members or miscount.
		s.Clear()
		if setLen(&s) != 0 {
			t.Fatalf("n=%d: after Clear Len=%d, want 0", n, setLen(&s))
		}
		if out := s.AppendSorted(nil); len(out) != 0 {
			t.Fatalf("n=%d: AppendSorted after Clear = %v", n, out)
		}
		if !s.Add(hi) || !setHas(&s, hi) || setLen(&s) != 1 {
			t.Fatalf("n=%d: refill after Clear broken", n)
		}
	}
}

// TestPeerSetFullWorldSweep fills every rank: the sorted walk over a full
// set must be exactly [0..n), regardless of insertion order.
func TestPeerSetFullWorldSweep(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		var s PeerSet
		s.Init(n)
		for r := n - 1; r >= 0; r-- { // reverse insert: order must not matter
			s.Add(r)
		}
		if setLen(&s) != n {
			t.Fatalf("n=%d: Len=%d after full fill", n, setLen(&s))
		}
		out := s.AppendSorted(nil)
		for r := 0; r < n; r++ {
			if out[r] != r {
				t.Fatalf("n=%d: AppendSorted[%d]=%d, want %d", n, r, out[r], r)
			}
		}
	}
}

func TestSparseVariantPresets(t *testing.T) {
	for _, name := range []string{"fusion", "edison", "mira"} {
		base := Platform(name)
		sp := Platform(name + "-sparse")
		if sp == nil {
			t.Fatalf("missing preset %q", name+"-sparse")
		}
		if !sp.SparseSync() || base.SparseSync() {
			t.Fatalf("%s: SparseSync flags wrong (sparse=%v base=%v)",
				name, sp.SparseSync(), base.SparseSync())
		}
		// The variant must differ only in Name and the mode switch.
		cp := *sp
		cp.Name = base.Name
		cp.MPI.SparseFlush = false
		if !reflect.DeepEqual(cp, *base) {
			t.Fatalf("%s-sparse diverged from %s beyond the mode switch", name, name)
		}
	}
}
