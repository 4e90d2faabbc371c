package cafmpi_test

import (
	"runtime"
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/rtgasnet"
)

// setupBytesPerImage boots an n-image world whose images only pass the
// first barrier, and returns the live heap per image at that point: image 0
// collects and reads the heap while every other image waits in a second
// barrier. Live bytes, not cumulative allocations: the barrier's own
// traffic is O(log P) per image and garbage once delivered.
func setupBytesPerImage(t *testing.T, sub caf.Substrate, n int) float64 {
	t.Helper()
	var before, booted runtime.MemStats
	settle := func(ms *runtime.MemStats) {
		// Two cycles: the first only moves sync.Pool caches to their victim
		// lists, so pooled buffers of an earlier world would still count.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	settle(&before)
	cfg := caf.Config{Substrate: sub, GASNetOptions: rtgasnet.Options{SegmentBytes: 4 << 10}}
	err := caf.Run(n, cfg, func(im *caf.Image) error {
		if err := im.World().Barrier(); err != nil {
			return err
		}
		if im.ID() == 0 {
			settle(&booted)
		}
		return im.World().Barrier()
	})
	if err != nil {
		t.Fatalf("%s np=%d: %v", sub, n, err)
	}
	return float64(int64(booted.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestSetupMemoryPerImageFlat: every P-sized rank table (COMM_WORLD's group,
// the world team) exists once per communicator or team, so what one booted
// image holds does not grow with the world. A table replicated on every
// image would make the np=2048 figure about 16× the np=128 one. The small
// GASNet segment keeps its fixed per-image cost from hiding the tables.
func TestSetupMemoryPerImageFlat(t *testing.T) {
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		small := setupBytesPerImage(t, sub, 128)
		large := setupBytesPerImage(t, sub, 2048)
		t.Logf("%s: %.0f B/image at np=128, %.0f B/image at np=2048 (%.2fx)", sub, small, large, large/small)
		if large > 1.25*small {
			t.Errorf("%s: a booted image holds %.0f B at np=2048, %.2fx the %.0f B at np=128 (want <= 1.25x)",
				sub, large, large/small, small)
		}
	}
}
