package cafmpi_test

// This file sorts after postmortem_e2e_test.go on purpose: the test below
// switches GOMAXPROCS to 8 and back, which perturbs the single-P schedule
// that TestPostmortemBundleDeterministic's byte compare depends on at
// GOMAXPROCS=1 (ROADMAP item 1). Go runs a package's tests in file order.

import (
	"errors"
	"runtime"
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
	"cafmpi/internal/hpcc"
)

// TestConcurrentDeliveryFaultPlans is the full-stack -race stress for the
// per-endpoint delivery lock: GOMAXPROCS=8 so senders genuinely race into
// each destination's mutex, and the fault injector active — first a dup
// plan (each duplicate must enter its destination's queues together with
// its original and be absorbed at most once, which RA's self-verification
// would catch), then a crash plan (the crashing image's panic unwinds
// mid-epoch while peers are still injecting into its endpoint, and must
// surface as the typed failure).
func TestConcurrentDeliveryFaultPlans(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pf := fabric.Platform("fusion")
	ra := func(im *caf.Image) error {
		_, err := hpcc.RandomAccess(im, hpcc.RAConfig{TableBits: 8, UpdatesPerImage: 256, BatchSize: 64, Verify: true})
		return err
	}
	t.Run("dup", func(t *testing.T) {
		plan := &faults.Plan{Seed: 9, Rules: []faults.Rule{
			{Kind: faults.KindDup, Src: -1, Dst: -1, Prob: 0.3, DelayNS: 400},
		}}
		cfg := caf.Config{Substrate: caf.MPI, Platform: pf, Faults: plan}
		if _, err := caf.RunWorld(8, cfg, ra); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("crash", func(t *testing.T) {
		plan := &faults.Plan{Seed: 9, Crashes: []faults.CrashPoint{{Image: 3, AtNS: 50_000}}}
		cfg := caf.Config{Substrate: caf.MPI, Platform: pf, Faults: plan}
		_, err := caf.RunWorld(8, cfg, ra)
		if err == nil {
			t.Fatal("crash plan completed without error")
		}
		if !errors.Is(err, faults.ErrImageFailed) {
			t.Fatalf("err = %v, want the typed ErrImageFailed chain", err)
		}
	})
}
