package cafmpi_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/faults"
)

// TestNoGoroutineLeakAtExit ends a job each of the three ways a job ends —
// a normal verified RandomAccess, an image crash, a canceled context — on
// both substrates, and requires the goroutine count to settle back to its
// value before the run: no image, parked waiter or wake hook outlives the
// job. No root-package test runs in parallel, so the count is this test's.
func TestNoGoroutineLeakAtExit(t *testing.T) {
	crash := &caf.FaultPlan{Seed: 1, Crashes: []faults.CrashPoint{{Image: 1, AtNS: 0}}}
	cause := errors.New("operator gave up")
	ends := []struct {
		name string
		run  func(sub caf.Substrate) error
		want error // nil: the run must succeed
	}{
		{"normal", func(sub caf.Substrate) error {
			_, err := chaosRun(sub, 8, nil, raVerify)
			return err
		}, nil},
		{"crash", func(sub caf.Substrate) error {
			_, err := chaosRun(sub, 4, crash, func(im *caf.Image) error {
				for i := 0; i < 4; i++ {
					if err := im.World().Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			return err
		}, caf.ErrImageFailed},
		{"cancel", func(sub caf.Substrate) error {
			ctx, cancel := context.WithCancelCause(context.Background())
			cancel(cause)
			cfg := caf.Config{Substrate: sub, Platform: fabric.Platform("fusion")}
			return caf.RunContext(ctx, 2, cfg, func(im *caf.Image) error {
				evs, err := im.NewEvents(im.World(), 1)
				if err != nil {
					return err
				}
				return evs.Wait(0) // never posted: only cancellation ends it
			})
		}, cause},
	}
	for _, sub := range chaosSubstrates {
		for _, end := range ends {
			base := runtime.NumGoroutine()
			err := end.run(sub)
			if end.want == nil && err != nil || end.want != nil && !errors.Is(err, end.want) {
				t.Fatalf("%s/%s: err = %v, want %v", sub, end.name, err, end.want)
			}
			got := runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); got > base && time.Now().Before(deadline); got = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if got > base {
				buf := make([]byte, 1<<16)
				t.Errorf("%s/%s: %d goroutines after the run, %d before:\n%s",
					sub, end.name, got, base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
