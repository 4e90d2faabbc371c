package wallprof_test

import (
	"math"
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/critpath"
	"cafmpi/internal/obs/wallprof"
)

// TestVirtSharesSumToAtMostOne: the virtual column maps components of one
// critical chain's blame onto disjoint wall sites, so on a real run the
// shares sum to at most the whole makespan.
func TestVirtSharesSumToAtMostOne(t *testing.T) {
	const np = 8
	clocks := make([]int64, np)
	cfg := caf.Config{Diag: caf.Diag{Observe: true, WallProf: true}}
	w, err := caf.RunWorld(np, cfg, func(im *caf.Image) error {
		defer func() { clocks[im.ID()] = im.Proc().Now() }()
		res, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 256, Verify: true})
		if err == nil && res.Errors != 0 {
			t.Errorf("RandomAccess: %d errors", res.Errors)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cp := critpath.Analyze(obs.Enabled(w), clocks)
	if cp == nil || cp.FinishNS <= 0 {
		t.Fatal("no critical path")
	}
	rep := wallprof.Enabled(w).Analyze(cp.ComponentTotals(), cp.FinishNS)
	var sum float64
	for _, row := range rep.Rows {
		sum += row.VirtShare
	}
	// RA's chain is compute, event waits and network terms, all mapped, so
	// the shares must also cover most of it; dividing by the image count
	// would leave 1/np.
	if sum < 0.5 || sum > 1+1e-9 {
		t.Errorf("virtual shares sum to %v, want in [0.5, 1]", sum)
	}
}

// TestRealProfileSharesSumToOne decodes the Go runtime's own CPU profile of
// a RandomAccess run: the shares sum to one, and the stacks resolve to
// simulator packages, not only to the runtime row.
func TestRealProfileSharesSumToOne(t *testing.T) {
	cfg := caf.Config{Diag: caf.Diag{WallProf: true}}
	w, err := caf.RunWorld(64, cfg, func(im *caf.Image) error {
		_, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 9, UpdatesPerImage: 32768})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := wallprof.Enabled(w).Analyze(nil, 0)
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if rep.Samples == 0 {
		t.Fatalf("no CPU samples in a %.0f ms run", float64(rep.Host.WallNS)/1e6)
	}
	var sum float64
	var n, simulator int64
	for _, r := range rep.Rows {
		sum += r.HostShare
		n += r.Samples
		if r.Component != "go runtime" {
			simulator += r.Samples
		}
	}
	if math.Abs(sum-1) > 1e-9 || n != rep.Samples {
		t.Errorf("rows hold %d of %d samples, shares sum to %v", n, rep.Samples, sum)
	}
	if simulator == 0 {
		t.Errorf("no sample resolved to a simulator package:\n%s", rep.Text())
	}
}
