package wallprof

import (
	"strings"
	"testing"

	"cafmpi/internal/sim"
)

func TestDisabledIsNilSafe(t *testing.T) {
	w := sim.NewWorld(4)
	if Enabled(w) != nil {
		t.Fatal("Enabled before Enable should be nil")
	}
	var r *Rec
	if got := r.Begin(SiteFabricInject); got != 0 {
		t.Fatalf("nil Rec Begin = %d, want 0", got)
	}
	r.End(SiteFabricInject, 0) // must not panic
	var ww *World
	ww.Finish()
	if ww.Rec(0) != nil {
		t.Fatal("nil World accessors should zero out")
	}
	if ww.Analyze(nil, 0) != nil {
		t.Fatal("nil World Analyze should be nil")
	}
}

func TestSamplingAccountsTime(t *testing.T) {
	w := sim.NewWorld(2)
	ww := Enable(w)
	if Enabled(w) != ww {
		t.Fatal("Enabled should find the registry Enable created")
	}
	r := ww.Rec(0)
	// Drive SampleEvery*8 sections; exactly 8 should sample.
	for i := 0; i < SampleEvery*8; i++ {
		t0 := r.Begin(SiteMPIFlush)
		for j := 0; j < 100; j++ {
			_ = j * j
		}
		r.End(SiteMPIFlush, t0)
	}
	a := r.sites[SiteMPIFlush]
	if a.ops != SampleEvery*8 {
		t.Fatalf("ops = %d, want %d", a.ops, SampleEvery*8)
	}
	if a.sampled != 8 {
		t.Fatalf("sampled = %d, want 8", a.sampled)
	}
	if a.ns < 0 {
		t.Fatalf("negative accumulated ns: %d", a.ns)
	}
}

func TestAnalyzeRanksAndAttributes(t *testing.T) {
	w := sim.NewWorld(2)
	ww := Enable(w)
	r := ww.Rec(1)
	for i := 0; i < SampleEvery*4; i++ {
		t0 := r.Begin(SiteFabricAbsorb)
		r.End(SiteFabricAbsorb, t0)
	}
	virt := map[string]int64{"match": 500, "compute": 1500}
	rep := ww.Analyze(virt, 1000) // finish is implied
	if rep == nil {
		t.Fatal("nil report")
	}
	if len(rep.Rows) != NumSites {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), NumSites)
	}
	if rep.Attributed < 0.90 {
		t.Fatalf("attributed = %v, want >= 0.90", rep.Attributed)
	}
	// Divergence ranking must be monotone non-increasing.
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].Divergence > rep.Rows[i-1].Divergence {
			t.Fatalf("rows not ranked by divergence: %v", rep.Rows)
		}
	}
	// Sum of wall shares covers the whole run (residual closes the gap).
	var sum float64
	seen := map[string]bool{}
	for _, row := range rep.Rows {
		sum += row.WallShare
		seen[row.Component] = true
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("wall shares sum to %v, want 1", sum)
	}
	for s := Site(0); s < numSites; s++ {
		if !seen[s.String()] {
			t.Fatalf("component %s missing from report", s)
		}
	}
	// match appears in virt, mapped to fabric/absorb: one chain's blame over
	// the makespan, 500 / 1000 = 0.5, whatever the image count.
	for _, row := range rep.Rows {
		if row.Component == SiteFabricAbsorb.String() && row.VirtShare != 0.5 {
			t.Fatalf("fabric/absorb virt share = %v, want 0.5", row.VirtShare)
		}
	}
	txt := rep.Text()
	for _, want := range []string{"attributed", "component", "divergence"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("report text missing %q:\n%s", want, txt)
		}
	}
	if ww.Host().GOMAXPROCS < 1 {
		t.Fatalf("host stats not populated: %+v", ww.Host())
	}
}

func TestLabelImageAndContentionToggles(t *testing.T) {
	w := sim.NewWorld(1)
	Enable(w)
	err := w.Run(func(p *sim.Proc) error {
		LabelImage(p)
		r := For(p)
		if r == nil {
			t.Error("For returned nil with wallprof enabled")
		}
		// A sampled section must restore the base label context.
		for i := 0; i < SampleEvery; i++ {
			t0 := r.Begin(SiteGASNetAM)
			r.End(SiteGASNetAM, t0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	restore := EnableContention()
	restore()
}
