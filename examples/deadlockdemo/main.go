// Deadlockdemo runs the two canonical sync-discipline bugs that caflint's
// interprocedural passes exist to catch, as live programs:
//
//  1. A rank-branched barrier: image 0 enters a collective no other image
//     reaches, so it waits forever (barriermatch flags this statically).
//  2. An out-of-epoch put: an MPI_PUT issued before any LockAll, which
//     the runtime rejects as an MPI-3 RMA usage violation (epochcheck flags
//     it statically).
//
// Both findings are deliberately present and carry scoped //caflint:allow
// annotations so the repository sweep stays clean; CI's regression step
// asserts — via `caflint -json` — that exactly these suppressed findings are
// still detected. If a pass regresses and goes silent here, CI fails.
//
//	go run ./examples/deadlockdemo
package main

import (
	"fmt"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/mpi"
	"cafmpi/internal/sim"
)

// rankBranchedBarrier boots four images and has image 0 alone enter a
// barrier. The other images return; image 0 blocks until the wall-clock
// watchdog fires.
func rankBranchedBarrier() string {
	w := sim.NewWorld(4)
	err := w.RunTimeout(2*time.Second, func(p *sim.Proc) error {
		im, err := caf.Boot(p, caf.Config{Substrate: caf.MPI, Platform: fabric.Platform("fusion")})
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			//caflint:allow barriermatch -- deliberate deadlock fixture: CI asserts this suppressed finding is still reported
			return im.World().Barrier()
		}
		return nil
	})
	switch {
	case err == sim.ErrTimeout:
		return "DEADLOCK (timed out): image 0 waits in a barrier no other image reaches"
	case err != nil:
		return fmt.Sprintf("failed differently: %v", err)
	default:
		return "completed?! the rank-branched barrier should deadlock"
	}
}

// outOfEpochPut allocates a window and issues a put before opening any
// access epoch. The runtime returns the MPI-3 usage error instead of
// corrupting the target silently.
func outOfEpochPut() string {
	w := sim.NewWorld(2)
	var verdict string
	err := w.RunTimeout(2*time.Second, func(p *sim.Proc) error {
		env := mpi.Init(p, fabric.AttachNet(p.World(), fabric.Platform("fusion")))
		comm := env.CommWorld()
		win, err := mpi.WinAllocate(comm, 64)
		if err != nil {
			return err
		}
		if p.ID() == 0 {
			buf := []byte("out-of-epoch write")
			//caflint:allow epochcheck -- deliberate RMA-outside-epoch fixture: CI asserts this suppressed finding is still reported
			if perr := win.Put(buf, 1, 0); perr != nil {
				verdict = fmt.Sprintf("runtime rejected it: %v", perr)
			} else {
				verdict = "runtime accepted an out-of-epoch put?!"
			}
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return win.Free()
	})
	if err != nil {
		return fmt.Sprintf("failed differently: %v", err)
	}
	return verdict
}

func main() {
	fmt.Println("bug 1: collective reachable only under rank-dependent control flow")
	fmt.Println("   ", rankBranchedBarrier())
	fmt.Println("bug 2: RMA issued outside any passive-target access epoch")
	fmt.Println("   ", outOfEpochPut())
	fmt.Println("caflint flags both statically: go run ./cmd/caflint ./examples/deadlockdemo")
}
