package a

import (
	"core"
	"mpi"
)

// outOfEpoch: RMA on a freshly-allocated (closed) window.
func outOfEpoch(c *mpi.Comm) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	buf := make([]byte, 8)
	if err := w.Put(buf, 1, 0); err != nil { // want `RMA mpi\.Win\.Put on w outside any passive-target epoch`
		return err
	}
	return nil
}

// disciplined: lock-all, transfer, flush, unlock-all — silent.
func disciplined(c *mpi.Comm) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	buf := make([]byte, 8)
	if err := w.Put(buf, 1, 0); err != nil {
		return err
	}
	if err := w.Flush(1); err != nil {
		return err
	}
	return w.UnlockAll()
}

// missingFlush: the epoch closes with the put still in flight.
func missingFlush(c *mpi.Comm) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	buf := make([]byte, 8)
	if err := w.Put(buf, 1, 0); err != nil {
		return err
	}
	return w.UnlockAll() // want `UnlockAll closes the epoch on w with unflushed RMA`
}

// afterClose: the epoch ended; the window is closed again.
func afterClose(c *mpi.Comm) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	if err := w.UnlockAll(); err != nil {
		return err
	}
	buf := make([]byte, 8)
	return w.Get(buf, 1, 0) // want `RMA mpi\.Win\.Get on w outside any passive-target epoch`
}

// unlockWithoutLock: no epoch was ever opened.
func unlockWithoutLock(c *mpi.Comm) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	return w.UnlockAll() // want `UnlockAll on w without an open epoch`
}

// conditionalFlush: one path unlocks dirty — still reported.
func conditionalFlush(c *mpi.Comm, ok bool) error {
	w, err := mpi.WinAllocate(c, 64)
	if err != nil {
		return err
	}
	if err := w.LockAll(); err != nil {
		return err
	}
	buf := make([]byte, 8)
	if err := w.Put(buf, 1, 0); err != nil {
		return err
	}
	if ok {
		if err := w.Flush(1); err != nil {
			return err
		}
	}
	return w.UnlockAll() // want `UnlockAll closes the epoch on w with unflushed RMA`
}

// paramWindow: state is unknown through a parameter — lenient, silent here;
// the function instead exports a RequiresEpochFact (see package b).
func paramWindow(w *mpi.Win, buf []byte) error {
	return w.Put(buf, 1, 0)
}

// deferredRead: the buffer is undefined until a fence.
func deferredRead(im *core.Image, ca *core.Coarray) (byte, error) {
	buf := make([]byte, 8)
	if err := ca.GetDeferred(1, 0, buf); err != nil {
		return 0, err
	}
	x := buf[0] // want `deferred get result buf read before a fence`
	if err := im.Cofence(); err != nil {
		return 0, err
	}
	return x, nil
}

// deferredFenced: fence first, then read — silent.
func deferredFenced(im *core.Image, ca *core.Coarray) (byte, error) {
	buf := make([]byte, 8)
	if err := ca.GetDeferred(1, 0, buf); err != nil {
		return 0, err
	}
	if err := im.Cofence(); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// deferredCollective: any collective fences too.
func deferredCollective(t *core.Team, ca *core.Coarray) (byte, error) {
	buf := make([]byte, 8)
	if err := ca.GetDeferred(1, 0, buf); err != nil {
		return 0, err
	}
	if err := t.Barrier(); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// discardedTransfer: the failure latch requires transfer errors checked.
func discardedTransfer(ca *core.Coarray, data []byte) {
	ca.Put(1, 0, data) // want `core\.Coarray\.Put error discarded`
}

// closureOutOfEpoch: function literal bodies are analyzed too — the demo
// programs run their scenarios inside sim callbacks.
func closureOutOfEpoch(c *mpi.Comm) func() error {
	return func() error {
		w, err := mpi.WinAllocate(c, 64)
		if err != nil {
			return err
		}
		buf := make([]byte, 8)
		if err := w.Put(buf, 1, 0); err != nil { // want `RMA mpi\.Win\.Put on w outside any passive-target epoch`
			return err
		}
		return nil
	}
}
