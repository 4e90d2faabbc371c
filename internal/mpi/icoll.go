package mpi

import "fmt"

// Nonblocking collectives (MPI-3 §5.12): each call builds a per-rank
// schedule of communication rounds that advances whenever the returned
// handle is tested or waited on. Every rank of the communicator must issue
// the same nonblocking collectives in the same order; each operation draws
// a fresh tag window so overlapping operations never cross-match.

// tagIColl is the base of the nonblocking-collective tag space (above the
// blocking collectives' tags).
const tagIColl = TagUB + 4096

// icollStep is one round: issue starts the round's sends/receives and
// returns their requests; finish runs after they complete (e.g. folding a
// received buffer into the accumulator).
type icollStep struct {
	issue  func() ([]*Request, error)
	finish func() error
}

// CollRequest is the handle of an in-flight nonblocking collective.
type CollRequest struct {
	env    *Env
	steps  []icollStep
	cur    int
	reqs   []*Request // outstanding requests of the current step
	issued bool       // the current step's requests are in flight
	err    error
}

// Test advances the schedule without blocking and reports completion.
func (r *CollRequest) Test() (bool, error) {
	for {
		if r.err != nil {
			return true, r.err
		}
		if r.cur >= len(r.steps) {
			return true, nil
		}
		step := &r.steps[r.cur]
		if !r.issued {
			reqs, err := step.issue()
			if err != nil {
				r.err = err
				return true, err
			}
			r.reqs = reqs
			r.issued = true
		}
		// Test every outstanding request of the round.
		for _, q := range r.reqs {
			if q == nil {
				continue
			}
			done, _, err := q.Test()
			if err != nil {
				r.err = err
				return true, err
			}
			if !done {
				return false, nil
			}
		}
		if step.finish != nil {
			if err := step.finish(); err != nil {
				r.err = err
				return true, err
			}
		}
		r.cur++
		r.issued = false
		r.reqs = nil
	}
}

// Wait blocks until the collective completes, driving MPI progress.
func (r *CollRequest) Wait() error {
	e := r.env
	var err error
	if berr := e.ep.Block(e.p, "icoll_wait", func() (bool, int64, bool) {
		var done bool
		if done, err = r.Test(); done {
			return true, 0, false
		}
		e.mu.Lock()
		st := e.ep.PollStateFor(&e.progSpec)
		e.mu.Unlock()
		return false, st.Earliest, st.HasEarliest
	}); berr != nil {
		return berr
	}
	return err
}

// icollTags reserves a tag window for one nonblocking collective.
func (c *Comm) icollTags() int {
	base := tagIColl + c.icollSeq*128
	c.icollSeq++
	return base
}

// isendI/irecvI are the schedule building blocks on the collective context.
func (c *Comm) isendI(buf []byte, dest, tag int) *Request {
	return c.isendCtx(buf, dest, tag, c.ctx+1)
}

func (c *Comm) irecvI(buf []byte, src, tag int) *Request {
	return c.irecvCtx(buf, src, tag, c.ctx+1)
}

// kick eagerly issues the schedule's first round so communication starts
// at the I* call, not at the first Test/Wait — this is what buys the
// overlap. It must run only on fully composed schedules.
func (r *CollRequest) kick() *CollRequest {
	_, _ = r.Test()
	return r
}

// Ibcast starts a nonblocking binomial broadcast of buf from root.
func (c *Comm) Ibcast(buf []byte, dt Datatype, root int) (*CollRequest, error) {
	r, err := c.buildIbcast(buf, dt, root)
	if err != nil {
		return nil, err
	}
	return r.kick(), nil
}

func (c *Comm) buildIbcast(buf []byte, dt Datatype, root int) (*CollRequest, error) {
	c.env.checkLive()
	if err := c.checkRank(root, "Ibcast root"); err != nil {
		return nil, err
	}
	n := c.Size()
	base := c.icollTags()
	r := &CollRequest{env: c.env}
	vr := (c.myRank - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (c.myRank - mask + n) % n
			r.steps = append(r.steps, icollStep{
				issue: func() ([]*Request, error) {
					return []*Request{c.irecvI(buf, src, base)}, nil
				},
			})
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < n {
			dst := (c.myRank + mask) % n
			r.steps = append(r.steps, icollStep{
				issue: func() ([]*Request, error) {
					return []*Request{c.isendI(buf, dst, base)}, nil
				},
			})
		}
	}
	return r, nil
}

// buildIreduce composes a binomial reduction into recvBuf at rank 0; the
// caller kicks it.
func (c *Comm) buildIreduce(sendBuf, recvBuf []byte, dt Datatype, op Op) (*CollRequest, error) {
	c.env.checkLive()
	if len(sendBuf)%dt.Size() != 0 {
		return nil, fmt.Errorf("mpi: Iallreduce buffer size %d not a multiple of %s size %d", len(sendBuf), dt, dt.Size())
	}
	n := c.Size()
	base := c.icollTags()
	r := &CollRequest{env: c.env}
	acc := append([]byte(nil), sendBuf...)
	tmp := make([]byte, len(sendBuf))
	me := c.myRank
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			dst := me - mask
			r.steps = append(r.steps, icollStep{
				issue: func() ([]*Request, error) {
					return []*Request{c.isendI(acc, dst, base)}, nil
				},
			})
			break
		}
		if src := me + mask; src < n {
			r.steps = append(r.steps, icollStep{
				issue: func() ([]*Request, error) {
					return []*Request{c.irecvI(tmp, src, base)}, nil
				},
				finish: func() error { return reduceInto(acc, tmp, dt, op) },
			})
		}
	}
	if me == 0 {
		r.steps = append(r.steps, icollStep{
			issue:  func() ([]*Request, error) { return nil, nil },
			finish: func() error { copy(recvBuf, acc); return nil },
		})
	}
	return r, nil
}

// Iallreduce starts a nonblocking reduce-to-0 + broadcast; every rank
// receives the result in recvBuf.
func (c *Comm) Iallreduce(sendBuf, recvBuf []byte, dt Datatype, op Op) (*CollRequest, error) {
	if len(recvBuf) < len(sendBuf) {
		return nil, fmt.Errorf("mpi: Iallreduce recv buffer too small (%d < %d)", len(recvBuf), len(sendBuf))
	}
	red, err := c.buildIreduce(sendBuf, recvBuf, dt, op)
	if err != nil {
		return nil, err
	}
	bc, err := c.buildIbcast(recvBuf[:len(sendBuf)], dt, 0)
	if err != nil {
		return nil, err
	}
	red.steps = append(red.steps, bc.steps...)
	return red.kick(), nil
}
