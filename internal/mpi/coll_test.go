package mpi

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cafmpi/internal/fabric"
	"cafmpi/internal/sim"
)

// commSizes exercises power-of-two and awkward sizes.
var commSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range commSizes {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			for root := 0; root < n; root++ {
				buf := make([]int64, 5)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = int64(root*100 + i)
					}
				}
				if err := c.Bcast(I64Bytes(buf), Int64, root); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != int64(root*100+i) {
						return fmt.Errorf("n=%d root=%d rank=%d: buf[%d]=%d", n, root, c.Rank(), i, buf[i])
					}
				}
			}
			return nil
		})
	}
}

func TestReduceSumAllRoots(t *testing.T) {
	for _, n := range commSizes {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			for root := 0; root < n; root++ {
				in := []int64{int64(c.Rank()), int64(c.Rank() * c.Rank()), 1}
				out := make([]int64, 3)
				if err := c.Reduce(I64Bytes(in), I64Bytes(out), Int64, OpSum, root); err != nil {
					return err
				}
				if c.Rank() == root {
					var s0, s1 int64
					for r := 0; r < n; r++ {
						s0 += int64(r)
						s1 += int64(r * r)
					}
					if out[0] != s0 || out[1] != s1 || out[2] != int64(n) {
						return fmt.Errorf("n=%d root=%d: reduce got %v, want [%d %d %d]", n, root, out, s0, s1, n)
					}
				}
			}
			return nil
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	runMPI(t, 7, func(e *Env) error {
		c := e.CommWorld()
		n := int64(c.Size())
		r := int64(c.Rank())

		cases := []struct {
			op   Op
			in   int64
			want int64
		}{
			{OpSum, r + 1, n * (n + 1) / 2},
			{OpMax, r, n - 1},
			{OpMin, r + 10, 10},
			{OpProd, 2, 1 << uint(n)},
			{OpBOr, 1 << uint(r), (1 << uint(n)) - 1},
			{OpBAnd, ^int64(0) ^ (1 << (20 + uint(r))), ^int64(0) ^ ((1<<uint(n) - 1) << 20)},
			{OpBXor, 1 << uint(r), (1 << uint(n)) - 1},
		}
		for _, tc := range cases {
			in, out := []int64{tc.in}, make([]int64, 1)
			if err := c.Allreduce(I64Bytes(in), I64Bytes(out), Int64, tc.op); err != nil {
				return err
			}
			if out[0] != tc.want {
				return fmt.Errorf("op %v got %d, want %d", tc.op, out[0], tc.want)
			}
		}
		return nil
	})
}

func TestAllreduceFloat64(t *testing.T) {
	runMPI(t, 8, func(e *Env) error {
		c := e.CommWorld()
		in := []float64{float64(c.Rank()) + 0.5}
		out := make([]float64, 1)
		if err := c.Allreduce(F64Bytes(in), F64Bytes(out), Float64, OpSum); err != nil {
			return err
		}
		want := 0.0
		for r := 0; r < 8; r++ {
			want += float64(r) + 0.5
		}
		if math.Abs(out[0]-want) > 1e-12 {
			return fmt.Errorf("float sum %v, want %v", out[0], want)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	for _, n := range commSizes {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			mine := []int64{int64(c.Rank() * 7)}
			all := make([]int64, n)
			if err := c.Allgather(I64Bytes(mine), I64Bytes(all), Int64); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if all[r] != int64(r*7) {
					return fmt.Errorf("n=%d rank=%d: allgather[%d]=%d, want %d", n, c.Rank(), r, all[r], r*7)
				}
			}
			return nil
		})
	}
}

func TestAlltoallPermutation(t *testing.T) {
	for _, n := range commSizes {
		runMPI(t, n, func(e *Env) error {
			c := e.CommWorld()
			// Block for destination d encodes (src, dst).
			send := make([]int32, 2*n)
			for d := 0; d < n; d++ {
				send[2*d] = int32(c.Rank())
				send[2*d+1] = int32(d)
			}
			recv := make([]int32, 2*n)
			if err := c.Alltoall(I32Bytes(send), I32Bytes(recv), Int32); err != nil {
				return err
			}
			for s := 0; s < n; s++ {
				if recv[2*s] != int32(s) || recv[2*s+1] != int32(c.Rank()) {
					return fmt.Errorf("n=%d rank=%d: block from %d is (%d,%d)", n, c.Rank(), s, recv[2*s], recv[2*s+1])
				}
			}
			return nil
		})
	}
}

func TestBarrierSynchronizesVirtualTime(t *testing.T) {
	runMPI(t, 8, func(e *Env) error {
		c := e.CommWorld()
		// One rank is far ahead in virtual time; after barrier, no rank may
		// be behind it (a barrier orders every rank after every entry).
		if c.Rank() == 3 {
			e.Proc().Advance(5_000_000)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if e.Proc().Now() < 5_000_000 {
			return fmt.Errorf("rank %d exited barrier at t=%d, before rank 3 entered", c.Rank(), e.Proc().Now())
		}
		return nil
	})
}

func TestCollectiveTimeScalesWithLogP(t *testing.T) {
	barrierTime := func(n int) int64 {
		var tmax int64
		w := sim.NewWorld(n)
		if err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			if err := e.CommWorld().Barrier(); err != nil {
				return err
			}
			if p.ID() == 0 {
				tmax = p.Now()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return tmax
	}
	t4, t64 := barrierTime(4), barrierTime(64)
	if t64 <= t4 {
		t.Errorf("barrier time should grow with P: %d ns (P=4) vs %d ns (P=64)", t4, t64)
	}
	// Dissemination is logarithmic: 64 ranks = 6 rounds vs 2 rounds; the
	// ratio must stay well under linear scaling (16x).
	if t64 > t4*8 {
		t.Errorf("barrier scaling looks linear: %d ns (P=4) vs %d ns (P=64)", t4, t64)
	}
}

// Property: Allreduce(SUM) equals the serial fold for random int vectors.
func TestAllreduceMatchesSerialFoldProperty(t *testing.T) {
	f := func(vals [][4]int32, nSize uint8) bool {
		n := int(nSize)%6 + 2
		if len(vals) < n {
			return true // not enough generated inputs; skip
		}
		want := [4]int64{}
		for r := 0; r < n; r++ {
			for j := 0; j < 4; j++ {
				want[j] += int64(vals[r][j])
			}
		}
		ok := true
		w := sim.NewWorld(n)
		err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			c := e.CommWorld()
			in := make([]int64, 4)
			for j := 0; j < 4; j++ {
				in[j] = int64(vals[c.Rank()][j])
			}
			out := make([]int64, 4)
			if err := c.Allreduce(I64Bytes(in), I64Bytes(out), Int64, OpSum); err != nil {
				return err
			}
			for j := 0; j < 4; j++ {
				if out[j] != want[j] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Alltoall is an involution when every rank sends symmetric data:
// applying it twice with swapped buffers returns the original.
func TestAlltoallRoundTripProperty(t *testing.T) {
	f := func(seed int64, nSize uint8) bool {
		n := int(nSize)%7 + 1
		ok := true
		w := sim.NewWorld(n)
		err := w.Run(func(p *sim.Proc) error {
			e := Init(p, fabric.AttachNet(p.World(), tp()))
			c := e.CommWorld()
			rng := p.Rng()
			orig := make([]int64, n)
			for i := range orig {
				orig[i] = rng.Int63() ^ seed
			}
			fwd := make([]int64, n)
			if err := c.Alltoall(I64Bytes(orig), I64Bytes(fwd), Int64); err != nil {
				return err
			}
			back := make([]int64, n)
			if err := c.Alltoall(I64Bytes(fwd), I64Bytes(back), Int64); err != nil {
				return err
			}
			for i := range back {
				if back[i] != orig[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceBufferSizeMismatch(t *testing.T) {
	runMPI(t, 2, func(e *Env) error {
		c := e.CommWorld()
		in := make([]byte, 7) // not a multiple of int64 size
		out := make([]byte, 7)
		err := c.Allreduce(in, out, Int64, OpSum)
		if err == nil {
			return fmt.Errorf("expected size-mismatch error")
		}
		// Re-synchronize: only some ranks may observe the local error path.
		return nil
	})
}
