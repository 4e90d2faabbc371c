package mpi

import "fmt"

// Hierarchical Allgather for the scalable-sync mode: the flat n-1-round
// ring becomes a binomial gather tree plus a broadcast, ceil(log2 n) rounds
// each, so no rank waits out n-1 exchanges once FlushAll stops being the
// O(P) cliff. The default mode keeps the ring (and its exact clocks) for
// the paper-faithful baseline.
//
// The gather tree is rooted at rank 0. Rank r's subtree covers the
// contiguous rank range [r, r+width) with width = min(lowest set bit of r,
// n-r) (rank 0 covers everything), so aggregated payloads stay contiguous
// and each edge carries the whole subtree in one message.

// hier reports whether hierarchical collectives are enabled on this
// communicator's platform. All ranks share the platform, so the dispatch
// agrees world-wide.
func (c *Comm) hier() bool { return c.env.costs().SparseFlush }

// subtreeWidth returns the number of contiguous blocks rooted at rank r.
func subtreeWidth(r, n int) int {
	if r == 0 {
		return n
	}
	w := r & -r
	if rest := n - r; rest < w {
		w = rest
	}
	return w
}

// gatherTree is the binomial-tree gather to rank 0: each node aggregates its
// subtree's blocks (in rank order) and forwards them to its parent in one
// message. recvBuf is significant only at rank 0.
func (c *Comm) gatherTree(sendBuf, recvBuf []byte) error {
	n := c.Size()
	blk := len(sendBuf)
	me := c.myRank
	width := subtreeWidth(me, n)
	buf := sendBuf
	if width > 1 {
		buf = make([]byte, width*blk)
		copy(buf, sendBuf)
	}
	cnt := 1
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			return c.csend(buf[:cnt*blk], me-mask, tagGather)
		}
		if child := me + mask; child < n {
			sub := subtreeWidth(child, n)
			st, err := c.crecv(buf[cnt*blk:(cnt+sub)*blk], child, tagGather)
			if err != nil {
				return err
			}
			if st.Count != sub*blk {
				return fmt.Errorf("mpi: Gather tree: rank %d sent %d bytes, want %d", child, st.Count, sub*blk)
			}
			cnt += sub
		}
	}
	copy(recvBuf, buf[:n*blk])
	return nil
}

// allgatherTree is gather-to-0 plus a binomial broadcast: 2·ceil(log2 n)
// rounds against the ring's n-1, at the price of funneling through rank 0.
func (c *Comm) allgatherTree(sendBuf, recvBuf []byte, dt Datatype) error {
	n := c.Size()
	blk := len(sendBuf)
	if err := c.gatherTree(sendBuf, recvBuf[:blk*n]); err != nil {
		return err
	}
	return c.Bcast(recvBuf[:blk*n], dt, 0)
}
