package mpi

import (
	"bytes"
	"testing"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

// collRun executes an Allgather round under pf and returns every image's
// observed data plus the slowest final clock. The data must be identical
// between the flat ring and the tree; the clocks need not be.
func collRun(t *testing.T, pf *fabric.Params, n int) (allgathered [][]byte, finish int64) {
	t.Helper()
	allgathered = make([][]byte, n)
	clocks := make([]int64, n)
	w := sim.NewWorld(n)
	if err := w.Run(func(p *sim.Proc) error {
		e := Init(p, fabric.AttachNet(p.World(), pf))
		c := e.CommWorld()
		me := c.Rank()
		defer func() { clocks[me] = p.Now() }()
		mine := []byte{byte(me), byte(me + 1), byte(me + 2)}
		ag := make([]byte, 3*n)
		if err := c.Allgather(mine, ag, Byte); err != nil {
			return err
		}
		allgathered[me] = append([]byte(nil), ag...)
		return c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	for _, cl := range clocks {
		if cl > finish {
			finish = cl
		}
	}
	return allgathered, finish
}

func TestTreeCollectivesMatchFlat(t *testing.T) {
	// The O(log P) gather tree plus broadcast behind the scalable-sync
	// switch must be data-identical to the default ring, including
	// non-power-of-two sizes.
	for _, n := range []int{1, 2, 5, 8, 13, 64} {
		a1, _ := collRun(t, tp(), n)
		a2, _ := collRun(t, sp(), n)
		for r := 0; r < n; r++ {
			if !bytes.Equal(a1[r], a2[r]) {
				t.Errorf("n=%d rank %d: tree Allgather %x, flat %x", n, r, a2[r], a1[r])
			}
		}
	}
}

func TestTreeCollectivesDeterministicClocks(t *testing.T) {
	// Two identical sparse-mode runs must land on the same virtual clock:
	// the tree schedules (and the dirty-set walks beneath them) may not
	// depend on map iteration order or other nondeterminism.
	_, f1 := collRun(t, sp(), 64)
	_, f2 := collRun(t, sp(), 64)
	if f1 != f2 {
		t.Errorf("sparse collective clocks differ across identical runs: %d vs %d ns", f1, f2)
	}
}

func TestTreeCollectivesScaleBetterThanFlat(t *testing.T) {
	// At scale the tree's O(log P) critical path must beat the ring's P-1
	// rounds outright.
	if testing.Short() {
		t.Skip("large-world comparison")
	}
	const n = 256
	_, flat := collRun(t, tp(), n)
	_, tree := collRun(t, sp(), n)
	if tree >= flat {
		t.Errorf("tree Allgather at P=%d finished at %d ns, flat at %d ns; the tree must be faster", n, tree, flat)
	}
}

func TestSubtreeWidthPartitionsRange(t *testing.T) {
	// The gather tree relies on the invariant that node vr's own block plus
	// its children's subtrees tile [vr, vr+width) exactly — the contiguity
	// that lets an edge carry a whole subtree in one message.
	for _, n := range []int{1, 2, 3, 7, 8, 13, 64, 100} {
		if subtreeWidth(0, n) != n {
			t.Errorf("n=%d: root width %d, want %d", n, subtreeWidth(0, n), n)
		}
		for vr := 0; vr < n; vr++ {
			w := subtreeWidth(vr, n)
			if w < 1 || vr+w > n {
				t.Fatalf("n=%d vr=%d: width %d out of range", n, vr, w)
			}
			// Children of vr sit at vr+mask for each mask below vr's lowest
			// set bit (every mask for the root); their widths plus vr's own
			// block must sum to w.
			cnt := 1
			for mask := 1; mask < n && vr&mask == 0; mask <<= 1 {
				if vr+mask < n {
					cnt += subtreeWidth(vr+mask, n)
				}
			}
			if cnt != w {
				t.Errorf("n=%d vr=%d: children tile %d blocks, subtree width %d", n, vr, cnt, w)
			}
		}
	}
}
