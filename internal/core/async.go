package core

import (
	"fmt"

	"cafmpi/internal/faults"
	"cafmpi/internal/trace"
)

// AsyncOpts carries the optional event arguments of an asynchronous copy
// (§2.1/§3.3): Pred gates the start of the operation, SrcDone posts when
// the source buffer is reusable, DstDone posts when the data is delivered
// at the destination.
type AsyncOpts struct {
	Pred    *EventRef
	SrcDone *EventRef
	DstDone *EventRef
}

// waitPred blocks on a predicate event, which must be owned by this image.
func (im *Image) waitPred(p *EventRef) error {
	if p == nil {
		return nil
	}
	if p.ownerWorld != im.ID() {
		return fmt.Errorf("core: predicate event must be local to the issuing image: %w", faults.ErrInvalid)
	}
	evs, ok := im.events[p.evsID]
	if !ok {
		return fmt.Errorf("core: predicate references unknown events object %d: %w", p.evsID, faults.ErrInvalid)
	}
	return evs.Wait(p.Slot)
}

// PutAsync is the asynchronous coarray write: A(off:...)[target] = data,
// with the §3.3 operation mapping:
//
//	rule 1: no events            -> deferred one-sided put (MPI_PUT)
//	rule 3: source event only    -> request-generating put (MPI_RPUT)
//	rule 4: destination event    -> data shipped inside an active message,
//	        the target copies it and posts the event (MPI cannot notify a
//	        target on put arrival); over GASNet the runtime instead puts,
//	        waits remote completion, and sends a plain notify AM.
func (ca *Coarray) PutAsync(target, off int, data []byte, opts AsyncOpts) error {
	if err := ca.check(target, off, len(data), "PutAsync"); err != nil {
		return err
	}
	if err := ca.im.waitPred(opts.Pred); err != nil {
		return err
	}
	defer ca.im.tr.Span(trace.CoarrayWrite)()
	im := ca.im
	worldTarget := ca.team.WorldRank(target)
	// Recorded at issue, before the injection publishes the release edge: in
	// the abstract model the data may land any time until the completion
	// event, so an unordered access at the target races even when this
	// implementation's AM path happens to resolve it deterministically.
	im.san.CheckRead(data, "PutAsync source")
	im.san.RemoteWrite(ca.id, worldTarget, off, len(data), "PutAsync")

	if opts.DstDone != nil {
		if im.sub.Caps().PutWithRemoteEventViaAM {
			args := im.amArgs[:5]
			args[0], args[1] = ca.id, uint64(off)
			args[2], args[3], args[4] = opts.DstDone.evsID, uint64(opts.DstDone.Slot), uint64(opts.DstDone.ownerWorld)
			if err := im.amSend(worldTarget, amCopyPut, args, data); err != nil {
				return err
			}
			// The AM layer buffers the payload at injection (§3.2), so the
			// source is immediately reusable.
			if opts.SrcDone != nil {
				im.postEvent(*opts.SrcDone, 1)
			}
			return nil
		}
		// RDMA put with remote completion, then notify.
		if err := im.sub.Put(ca.seg, target, off, data); err != nil {
			return err
		}
		im.postEvent(*opts.DstDone, 1)
		if opts.SrcDone != nil {
			im.postEvent(*opts.SrcDone, 1)
		}
		return nil
	}

	if opts.SrcDone != nil {
		comp, err := im.sub.PutAsyncLocal(ca.seg, target, off, data)
		if err != nil {
			return err
		}
		im.notePending(comp, opts.SrcDone)
		return nil
	}

	return im.sub.PutDeferred(ca.seg, target, off, data)
}

// GetAsync is the asynchronous coarray read: into = A(off:...)[target].
// With a completion event it maps to a request-generating get (MPI_RGET,
// §3.3 rule 2); without one it is implicitly synchronized by the next
// Cofence.
func (ca *Coarray) GetAsync(target, off int, into []byte, opts AsyncOpts) error {
	if err := ca.check(target, off, len(into), "GetAsync"); err != nil {
		return err
	}
	if err := ca.im.waitPred(opts.Pred); err != nil {
		return err
	}
	defer ca.im.tr.Span(trace.CoarrayRead)()
	im := ca.im
	im.san.RemoteRead(ca.id, ca.team.WorldRank(target), off, len(into), "GetAsync")
	done := opts.DstDone
	if done == nil {
		done = opts.SrcDone // a get's "source" is remote; accept either name
	}
	if done != nil {
		comp, err := im.sub.GetAsync(ca.seg, target, off, into)
		if err != nil {
			return err
		}
		im.notePending(comp, done)
		return nil
	}
	// No completion event: `into` is undefined until the next cofence.
	im.san.NoteDeferredGetPeer(into, ca.team.WorldRank(target), "GetAsync")
	return im.sub.GetDeferred(ca.seg, target, off, into)
}

// CopyAsync is the general asynchronous copy between coarray locations
// (copy_async, §2.1). Local-to-remote maps to PutAsync, remote-to-local to
// GetAsync, and remote-to-remote stages through a local buffer (get then
// put), with events threaded so the contract holds.
func (im *Image) CopyAsync(dst *Coarray, dstImage, dstOff int, src *Coarray, srcImage, srcOff, n int, opts AsyncOpts) error {
	switch {
	case src.team.WorldRank(srcImage) == im.ID():
		return dst.PutAsync(dstImage, dstOff, src.Local()[srcOff:srcOff+n], opts)
	case dst.team.WorldRank(dstImage) == im.ID():
		if err := im.waitPred(opts.Pred); err != nil {
			return err
		}
		if err := src.GetAsync(srcImage, srcOff, dst.Local()[dstOff:dstOff+n], AsyncOpts{DstDone: opts.DstDone}); err != nil {
			return err
		}
		if opts.SrcDone != nil {
			im.postEvent(*opts.SrcDone, 1)
		}
		return nil
	default:
		// Remote-to-remote: stage through the issuing image.
		if err := im.waitPred(opts.Pred); err != nil {
			return err
		}
		buf := make([]byte, n)
		im.san.RemoteRead(src.id, src.team.WorldRank(srcImage), srcOff, n, "CopyAsync stage")
		if err := im.sub.Get(src.seg, srcImage, srcOff, buf); err != nil {
			return err
		}
		if opts.SrcDone != nil {
			im.postEvent(*opts.SrcDone, 1)
		}
		return dst.PutAsync(dstImage, dstOff, buf, AsyncOpts{DstDone: opts.DstDone})
	}
}

// Cofence blocks until all implicitly synchronized operations issued before
// it are locally complete (§3.5: MPI_WAITALL on the runtime's arrays of
// request handles). It also acts as an ordering point: no deferred
// operation issued after the Cofence can be reordered before it.
func (im *Image) Cofence() error {
	defer im.tr.Span(trace.Other)()
	err := im.sub.LocalFenceScoped(true, true)
	im.san.FenceLocal()
	return err
}

// CofenceOpts selects which implicit operations a scoped cofence completes
// (the statement's optional argument, §3.5).
type CofenceOpts struct {
	Puts bool
	Gets bool
}

// CofenceScoped is Cofence restricted to the implicit puts and/or gets.
func (im *Image) CofenceScoped(opts CofenceOpts) error {
	defer im.tr.Span(trace.Other)()
	err := im.sub.LocalFenceScoped(opts.Puts, opts.Gets)
	if opts.Gets {
		im.san.FenceLocal()
	}
	return err
}
