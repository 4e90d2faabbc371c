package mpi

import (
	"fmt"
	"testing"
)

func TestIbcastMatchesBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			buf := make([]int64, 4)
			if c.Rank() == n-1 {
				for i := range buf {
					buf[i] = int64(1000 + i)
				}
			}
			r, err := c.Ibcast(I64Bytes(buf), Int64, n-1)
			if err != nil {
				return err
			}
			if err := r.Wait(); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != int64(1000+i) {
					return fmt.Errorf("n=%d rank=%d: buf[%d]=%d", n, c.Rank(), i, buf[i])
				}
			}
			return nil
		})
	}
}

func TestIallreduceMatchesAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 7, 8} {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			in := []int64{int64(c.Rank() + 1), int64(c.Rank() * 2)}
			nb := make([]int64, 2)
			r, err := c.Iallreduce(I64Bytes(in), I64Bytes(nb), Int64, OpSum)
			if err != nil {
				return err
			}
			// Overlapped local work while the reduction progresses.
			e.Proc().Advance(10_000)
			if err := r.Wait(); err != nil {
				return err
			}
			if done, err := r.Test(); !done || err != nil {
				return fmt.Errorf("completed Iallreduce re-test: %v %v", done, err)
			}
			bl := make([]int64, 2)
			if err := c.Allreduce(I64Bytes(in), I64Bytes(bl), Int64, OpSum); err != nil {
				return err
			}
			if nb[0] != bl[0] || nb[1] != bl[1] {
				return fmt.Errorf("n=%d: Iallreduce %v != Allreduce %v", n, nb, bl)
			}
			return nil
		})
	}
}

func TestConcurrentNonblockingCollectives(t *testing.T) {
	// Two overlapping nonblocking collectives issued in the same order on
	// every rank must not cross-match.
	runMPI(t, 4, func(e *Env) error {
		c := e.CommWorld()
		a := []int64{int64(c.Rank())}
		outA := make([]int64, 1)
		b := []int64{int64(c.Rank() * 100)}
		outB := make([]int64, 1)
		r1, err := c.Iallreduce(I64Bytes(a), I64Bytes(outA), Int64, OpSum)
		if err != nil {
			return err
		}
		r2, err := c.Iallreduce(I64Bytes(b), I64Bytes(outB), Int64, OpSum)
		if err != nil {
			return err
		}
		if err := r2.Wait(); err != nil { // out of order on purpose
			return err
		}
		if err := r1.Wait(); err != nil {
			return err
		}
		if outA[0] != 6 || outB[0] != 600 {
			return fmt.Errorf("cross-matched: %d, %d", outA[0], outB[0])
		}
		return nil
	})
}

// TestIreduceBufferValidation reaches the reduction schedule's checks
// through Iallreduce, its only entry point.
func TestIreduceBufferValidation(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		if _, err := c.Iallreduce(make([]byte, 7), make([]byte, 7), Int64, OpSum); err == nil {
			return fmt.Errorf("bad element size accepted")
		}
		if _, err := c.Ibcast(nil, Int64, 5); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		if _, err := c.Iallreduce(make([]byte, 16), make([]byte, 8), Int64, OpSum); err == nil {
			return fmt.Errorf("short recv accepted")
		}
		return nil
	})
}
