package obs

import (
	"strings"
	"testing"

	"cafmpi/internal/sim"
)

// Identical per-image activity must cost identical shard memory whether the
// world has 32, 128 or 1024 images: nothing in a shard is O(P), on either
// side of DenseCommThreshold. This is the ROADMAP item 1 memory bound,
// asserted exactly.
func TestShardMemoryIndependentOfWorldSize(t *testing.T) {
	work := func(n int) (*Shard, int64) {
		w := sim.NewWorld(n)
		sh := Enable(w, 0).Shard(0)
		for i := 0; i < 500; i++ {
			sh.Record(LayerMPI, OpPut, i%16, 64, 0, int64(i), int64(i+1))
			sh.RecordEdge(Edge{Start: int64(i), End: int64(i + 1)})
			sh.CommAdd(i%16, 64)
		}
		return sh, sh.MemBytes()
	}
	sh32, mem32 := work(32)
	for _, n := range []int{128, 1024} {
		if _, mem := work(n); mem != mem32 {
			t.Errorf("shard memory scales with world size: np=32 -> %d bytes, np=%d -> %d bytes", mem32, n, mem)
		}
	}
	if got := sh32.CommPeers(); got != 16 {
		t.Errorf("CommPeers = %d, want 16", got)
	}
}

// An idle shard in a big world must cost only its own struct: rings are
// lazily allocated and comm maps do not exist until first use.
func TestIdleShardCostsNothingAtNP1024(t *testing.T) {
	w := sim.NewWorld(1024)
	ow := Enable(w, 0)
	idle := ow.Shard(512)
	base := idle.MemBytes()
	if base > 4096 {
		t.Errorf("idle shard costs %d bytes; want only the struct (<= 4KiB)", base)
	}
	if idle.RingCap() != DefaultRingCap {
		t.Errorf("RingCap = %d, want %d", idle.RingCap(), DefaultRingCap)
	}
}

// A lazily grown ring must preserve wrap semantics through its doubling
// phase: growth happens only while total == len(ring), so once full it
// behaves exactly like the old eagerly allocated ring.
func TestGrownRingWrapOrdering(t *testing.T) {
	w := sim.NewWorld(1)
	sh := Enable(w, 256).Shard(0)
	const total = 1000
	for i := 0; i < total; i++ {
		sh.Record(LayerMPI, OpPut, 0, i, i, int64(i), int64(i+1))
	}
	if sh.Recorded() != total {
		t.Errorf("Recorded = %d, want %d", sh.Recorded(), total)
	}
	if want := uint64(total - 256); sh.Dropped() != want {
		t.Errorf("Dropped = %d, want %d", sh.Dropped(), want)
	}
	evs := sh.Events()
	if len(evs) != 256 {
		t.Fatalf("retained %d events, want 256", len(evs))
	}
	for i, e := range evs {
		if want := int32(total - 256 + i); e.Tag != want {
			t.Fatalf("event %d tag = %d, want %d (wrap ordering broken across growth)", i, e.Tag, want)
		}
	}
}

// Above DenseCommThreshold the snapshot must not materialize N×N matrices:
// comm data is exported as per-source row summaries with bounded top-k, and
// the text rendering is the summary form.
func TestSnapshotSparseCommExport(t *testing.T) {
	const n = DenseCommThreshold + 8
	w := sim.NewWorld(n)
	ow := Enable(w, 0)
	sh := ow.Shard(3)
	for dst := 0; dst < 20; dst++ {
		for k := 0; k <= dst; k++ {
			sh.CommAdd(dst, 10)
		}
	}
	snap := ow.Snapshot()
	if snap.CommCount != nil || snap.CommBytes != nil {
		t.Error("dense comm matrices materialized above DenseCommThreshold")
	}
	if len(snap.Comm) != 1 {
		t.Fatalf("snapshot has %d comm rows, want 1 (zero rows must be skipped)", len(snap.Comm))
	}
	row := snap.Comm[0]
	if row.Src != 3 || row.Peers != 20 {
		t.Errorf("comm row = src %d peers %d, want src 3 peers 20", row.Src, row.Peers)
	}
	if len(row.Top) != CommTopK {
		t.Errorf("top-k has %d entries, want %d", len(row.Top), CommTopK)
	}
	// Heaviest destination first: dst 19 carries the most bytes.
	if row.Top[0].Dst != 19 {
		t.Errorf("top entry dst = %d, want 19", row.Top[0].Dst)
	}
	txt := snap.CommMatrixText()
	if !strings.Contains(txt, "comm summary") {
		t.Errorf("CommMatrixText above threshold did not render the summary form:\n%s", txt)
	}
	if snap.ObsBytesPerImage <= 0 {
		t.Error("snapshot did not self-meter obs bytes per image")
	}
	if snap.Counters[CtrObsBytesPerImage.String()] != snap.ObsBytesPerImage {
		t.Error("obs_bytes_per_image counter not populated from the self-meter")
	}
}

// At or below the threshold the dense path (and its full-matrix rendering)
// must be preserved, with all-zero rows skipped.
func TestSnapshotDenseCommExport(t *testing.T) {
	w := sim.NewWorld(4)
	ow := Enable(w, 0)
	ow.Shard(1).CommAdd(2, 99)
	snap := ow.Snapshot()
	if snap.CommCount == nil || snap.CommCount[1][2] != 1 || snap.CommBytes[1][2] != 99 {
		t.Fatalf("dense comm matrices wrong: %+v", snap.CommCount)
	}
	if len(snap.Comm) != 1 || snap.Comm[0].Src != 1 {
		t.Errorf("comm rows = %+v, want one row for src 1", snap.Comm)
	}
	txt := snap.CommMatrixText()
	if !strings.Contains(txt, "all-zero rows skipped") {
		t.Errorf("dense rendering did not skip zero rows:\n%s", txt)
	}
}
