package fabric

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cafmpi/internal/faults"
	"cafmpi/internal/sim"
)

// TestBlockLoopOrder drives Endpoint.Block through each step of its loop:
// the activity sample before the pass, done before the latch, the latch
// before the advance, and the advance before a park. A case whose Block
// parks with nothing left to wake it fails on the timeout instead of
// hanging the suite.
func TestBlockLoopOrder(t *testing.T) {
	const start = 100
	cases := []struct {
		name string
		// pass answers call n (from 0) on endpoint ep of image p.
		pass func(ep *Endpoint, p *sim.Proc, n int) (bool, int64, bool)
		// tripFirst trips the failure latch before Block is called;
		// tripParked trips it once the image is parked in the cond.
		tripFirst, tripParked bool
		wantCalls             int
		wantNow               int64
		wantOp                string // non-empty: Block must fail with this op
	}{
		{
			// The CollRequest window: a completion that pokes the
			// endpoint while the pass runs must not be slept through.
			name: "poke during pass re-runs the pass",
			pass: func(ep *Endpoint, _ *sim.Proc, n int) (bool, int64, bool) {
				if n == 0 {
					ep.Poke()
					return false, 0, false
				}
				return true, 0, false
			},
			wantCalls: 2, wantNow: start,
		},
		{
			name: "earliest moves the clock exactly and re-runs the pass",
			pass: func(_ *Endpoint, p *sim.Proc, n int) (bool, int64, bool) {
				if n == 0 {
					return false, 5000, true
				}
				return p.Now() == 5000, 0, false
			},
			wantCalls: 2, wantNow: 5000,
		},
		{
			name: "latch tripped while parked fails with the caller's op",
			pass: func(*Endpoint, *sim.Proc, int) (bool, int64, bool) {
				return false, 0, false
			},
			tripParked: true,
			wantCalls:  2, wantNow: start, wantOp: "event_wait",
		},
		{
			name: "latch comes before the advance",
			pass: func(*Endpoint, *sim.Proc, int) (bool, int64, bool) {
				return false, 5000, true
			},
			tripFirst: true,
			wantCalls: 1, wantNow: start, wantOp: "recv",
		},
		{
			name: "done on the first pass touches neither clock nor cond",
			pass: func(*Endpoint, *sim.Proc, int) (bool, int64, bool) {
				return true, 5000, true
			},
			wantCalls: 1, wantNow: start,
		},
		{
			name: "done wins over a tripped latch",
			pass: func(*Endpoint, *sim.Proc, int) (bool, int64, bool) {
				return true, 0, false
			},
			tripFirst: true,
			wantCalls: 1, wantNow: start,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := sim.NewWorld(2)
			flt := faults.Enable(w, nil)
			ep := AttachNet(w, testParams()).Layer("t").Endpoint(0)
			p := w.Proc(0)
			p.AdvanceTo(start)
			if tc.tripFirst {
				flt.MarkFailed(1)
			}
			if tc.tripParked {
				go func() {
					for parked := false; !parked; {
						ep.mu.Lock()
						parked = ep.waiters == 1
						ep.mu.Unlock()
						if !parked {
							runtime.Gosched()
						}
					}
					flt.MarkFailed(1)
				}()
			}
			calls := 0
			op := tc.wantOp
			if op == "" {
				op = "wait"
			}
			res := make(chan error, 1)
			go func() {
				res <- ep.Block(p, op, func() (bool, int64, bool) {
					calls++
					return tc.pass(ep, p, calls-1)
				})
			}()
			var err error
			select {
			case err = <-res:
			case <-time.After(10 * time.Second):
				t.Fatal("Block parked with nothing left to wake it")
			}
			if calls != tc.wantCalls {
				t.Errorf("pass ran %d times, want %d", calls, tc.wantCalls)
			}
			if got := p.Now(); got != tc.wantNow {
				t.Errorf("clock %d, want %d", got, tc.wantNow)
			}
			if tc.wantOp == "" {
				if err != nil {
					t.Fatalf("Block = %v, want nil", err)
				}
			} else {
				var ie *faults.ImageError
				if !errors.As(err, &ie) || ie.Op != tc.wantOp || ie.Image != 1 {
					t.Fatalf("Block = %#v, want *faults.ImageError{Image: 1, Op: %q}", err, tc.wantOp)
				}
			}
		})
	}
}
