package mpi

import "fmt"

// Internal tag space for collectives (above TagUB, on the comm's collective
// context). MPI requires every rank to call collectives on a communicator
// in the same order, and the fabric preserves per-sender stream order, so a
// fixed tag per algorithm round is unambiguous. The blank holds a retired
// collective's slot, so no surviving tag moves.
const (
	tagBarrier = TagUB + 1 + iota*64
	tagBcast
	tagReduce
	tagGather // the sparse-mode gather tree under Allgather
	tagAllgather
	_
	tagAlltoall
)

// csend/crecv are blocking p2p on the collective context. The request
// handles never escape, so they return to the pool after a successful Wait.
func (c *Comm) csend(buf []byte, dest, tag int) error {
	r := c.isendCtx(buf, dest, tag, c.ctx+1)
	if _, err := r.Wait(); err != nil {
		return err
	}
	r.Free()
	return nil
}

func (c *Comm) crecv(buf []byte, src, tag int) (Status, error) {
	r := c.irecvCtx(buf, src, tag, c.ctx+1)
	st, err := r.Wait()
	if err != nil {
		return st, err
	}
	r.Free()
	return st, nil
}

func (c *Comm) csendrecv(sendBuf []byte, dest, sendTag int, recvBuf []byte, src, recvTag int) error {
	rr := c.irecvCtx(recvBuf, src, recvTag, c.ctx+1)
	sr := c.isendCtx(sendBuf, dest, sendTag, c.ctx+1)
	if _, err := sr.Wait(); err != nil {
		return err
	}
	if _, err := rr.Wait(); err != nil {
		return err
	}
	sr.Free()
	rr.Free()
	return nil
}

// Barrier blocks until every rank in the communicator has entered it
// (dissemination algorithm: ceil(log2 n) rounds).
func (c *Comm) Barrier() error {
	c.env.checkLive()
	n := c.Size()
	for k, round := 1, 0; k < n; k, round = k<<1, round+1 {
		dst := (c.myRank + k) % n
		src := (c.myRank - k + n) % n
		if err := c.csendrecv(nil, dst, tagBarrier+round, nil, src, tagBarrier+round); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts buf from root to all ranks (binomial tree).
func (c *Comm) Bcast(buf []byte, dt Datatype, root int) error {
	c.env.checkLive()
	if err := c.checkRank(root, "bcast root"); err != nil {
		return err
	}
	n := c.Size()
	vr := (c.myRank - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (c.myRank - mask + n) % n
			if _, err := c.crecv(buf, src, tagBcast); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < n {
			dst := (c.myRank + mask) % n
			if err := c.csend(buf, dst, tagBcast); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines sendBuf from every rank with op into recvBuf at root
// (binomial tree; op must be associative and commutative). recvBuf is
// significant only at root.
func (c *Comm) Reduce(sendBuf, recvBuf []byte, dt Datatype, op Op, root int) error {
	c.env.checkLive()
	if err := c.checkRank(root, "reduce root"); err != nil {
		return err
	}
	if len(sendBuf)%dt.Size() != 0 {
		return fmt.Errorf("mpi: Reduce buffer size %d not a multiple of %s size %d", len(sendBuf), dt, dt.Size())
	}
	n := c.Size()
	acc := append([]byte(nil), sendBuf...)
	tmp := make([]byte, len(sendBuf))
	vr := (c.myRank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			dst := (c.myRank - mask + n) % n
			if err := c.csend(acc, dst, tagReduce); err != nil {
				return err
			}
			break
		}
		if vr+mask < n {
			src := (c.myRank + mask) % n
			if _, err := c.crecv(tmp, src, tagReduce); err != nil {
				return err
			}
			if err := reduceInto(acc, tmp, dt, op); err != nil {
				return err
			}
		}
	}
	if c.myRank == root {
		if len(recvBuf) < len(acc) {
			return fmt.Errorf("mpi: Reduce recv buffer too small (%d < %d)", len(recvBuf), len(acc))
		}
		copy(recvBuf, acc)
	}
	return nil
}

// Allreduce is Reduce followed by Bcast; every rank receives the result.
func (c *Comm) Allreduce(sendBuf, recvBuf []byte, dt Datatype, op Op) error {
	if len(recvBuf) < len(sendBuf) {
		return fmt.Errorf("mpi: Allreduce recv buffer too small (%d < %d)", len(recvBuf), len(sendBuf))
	}
	if err := c.Reduce(sendBuf, recvBuf, dt, op, 0); err != nil {
		return err
	}
	return c.Bcast(recvBuf[:len(sendBuf)], dt, 0)
}

// Allgather collects equal-size blocks from every rank into every rank's
// recvBuf (ring algorithm: n-1 neighbor exchanges; gather+broadcast trees
// with O(log n) rounds in scalable-sync mode).
func (c *Comm) Allgather(sendBuf, recvBuf []byte, dt Datatype) error {
	c.env.checkLive()
	n := c.Size()
	blk := len(sendBuf)
	if len(recvBuf) < blk*n {
		return fmt.Errorf("mpi: Allgather recv buffer too small (%d < %d)", len(recvBuf), blk*n)
	}
	if c.hier() {
		return c.allgatherTree(sendBuf, recvBuf, dt)
	}
	copy(recvBuf[c.myRank*blk:], sendBuf)
	right := (c.myRank + 1) % n
	left := (c.myRank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendIdx := (c.myRank - s + n) % n
		recvIdx := (c.myRank - s - 1 + n) % n
		if err := c.csendrecv(
			recvBuf[sendIdx*blk:(sendIdx+1)*blk], right, tagAllgather,
			recvBuf[recvIdx*blk:(recvIdx+1)*blk], left, tagAllgather); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall exchanges equal-size blocks between all pairs (pairwise-exchange
// schedule, the algorithm MPICH uses for large messages: step i pairs rank
// with rank±i, keeping every link busy without hot spots).
func (c *Comm) Alltoall(sendBuf, recvBuf []byte, dt Datatype) error {
	c.env.checkLive()
	n := c.Size()
	if len(sendBuf)%n != 0 || len(recvBuf)%n != 0 {
		return fmt.Errorf("mpi: Alltoall buffers (%d,%d bytes) not divisible by comm size %d", len(sendBuf), len(recvBuf), n)
	}
	blk := len(sendBuf) / n
	if len(recvBuf) < blk*n {
		return fmt.Errorf("mpi: Alltoall recv buffer too small")
	}
	copy(recvBuf[c.myRank*blk:(c.myRank+1)*blk], sendBuf[c.myRank*blk:])
	for i := 1; i < n; i++ {
		dst := (c.myRank + i) % n
		src := (c.myRank - i + n) % n
		if err := c.csendrecv(
			sendBuf[dst*blk:(dst+1)*blk], dst, tagAlltoall,
			recvBuf[src*blk:(src+1)*blk], src, tagAlltoall); err != nil {
			return err
		}
	}
	return nil
}
