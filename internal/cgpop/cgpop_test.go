package cgpop

import (
	"fmt"
	"math"
	"testing"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
)

func testPlatform() *fabric.Params {
	p := fabric.Fusion
	p.Name = "test"
	p.GASNet.SRQ.Enabled = false
	return &p
}

func run(t *testing.T, sub caf.Substrate, n int, cfg Config) Result {
	t.Helper()
	var res Result
	c := caf.Config{Substrate: sub, Platform: testPlatform()}
	if err := caf.Run(n, c, func(im *caf.Image) error {
		r, err := Run(im, cfg)
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			res = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCGConvergesPush(t *testing.T) {
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		res := run(t, sub, 4, Config{NX: 16, NY: 32, Iters: 60})
		if res.FinalNorm >= res.InitialNorm*1e-6 {
			t.Errorf("%s push: CG did not converge: %g -> %g", sub, res.InitialNorm, res.FinalNorm)
		}
	}
}

func TestCGConvergesPull(t *testing.T) {
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		res := run(t, sub, 4, Config{NX: 16, NY: 32, Iters: 60, Pull: true})
		if res.FinalNorm >= res.InitialNorm*1e-6 {
			t.Errorf("%s pull: CG did not converge: %g -> %g", sub, res.InitialNorm, res.FinalNorm)
		}
	}
}

func TestPushPullSameNumerics(t *testing.T) {
	// The exchange style must not change the arithmetic, not even in the
	// last bit.
	push := run(t, caf.MPI, 4, Config{NX: 12, NY: 24, Iters: 25})
	pull := run(t, caf.MPI, 4, Config{NX: 12, NY: 24, Iters: 25, Pull: true})
	if push.InitialNorm != pull.InitialNorm || push.FinalNorm != pull.FinalNorm {
		t.Errorf("push norms %x/%x != pull norms %x/%x",
			math.Float64bits(push.InitialNorm), math.Float64bits(push.FinalNorm),
			math.Float64bits(pull.InitialNorm), math.Float64bits(pull.FinalNorm))
	}
}

// TestNormsBitExact pins the solver's norms bit for bit, on both
// substrates and both halo styles: the host loops may be restructured, the
// floating-point results may not change.
func TestNormsBitExact(t *testing.T) {
	want := map[int][2]uint64{
		1: {0x3ffda68db1e10bff, 0x3c31a7a76b443694},
		4: {0x3ffda68db1e10bfe, 0x3c2dea322d1c7bed},
	}
	for _, np := range []int{1, 4} {
		for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
			for _, pull := range []bool{false, true} {
				res := run(t, sub, np, Config{NX: 16, NY: 32, Iters: 60, Pull: pull})
				got := [2]uint64{math.Float64bits(res.InitialNorm), math.Float64bits(res.FinalNorm)}
				if got != want[np] {
					t.Errorf("np=%d %s pull=%v: norms %#x, want %#x", np, sub, pull, got, want[np])
				}
			}
		}
	}
}

// referenceCG is the single-image solver written the plain way: u_exact
// evaluated per point, the column wrap by modulo, and the partial sums,
// the direction update and the x/r update as separate sweeps.
func referenceCG(nx, ny, iters int) (initial, final float64) {
	uExact := func(gi, gj int) float64 {
		return math.Sin(math.Pi*float64(gi+1)/float64(ny+1)) *
			math.Cos(2*math.Pi*float64(gj)/float64(nx))
	}
	n := ny * nx
	r := make([]float64, (ny+2)*nx) // zero halo rows: Dirichlet boundary
	for gi := 0; gi < ny; gi++ {
		for j := 0; j < nx; j++ {
			c := 4*uExact(gi, j) - uExact(gi, (j+1)%nx) - uExact(gi, (j-1+nx)%nx)
			if gi+1 < ny {
				c -= uExact(gi+1, j)
			}
			if gi-1 >= 0 {
				c -= uExact(gi-1, j)
			}
			r[nx+gi*nx+j] = c
		}
	}
	x := make([]float64, n)
	w := make([]float64, n)
	pv := make([]float64, n)
	q := make([]float64, n)
	applyA := func() {
		for i := 0; i < ny; i++ {
			ri := r[(i+1)*nx : (i+2)*nx]
			up := r[i*nx : (i+1)*nx]
			dn := r[(i+2)*nx : (i+3)*nx]
			for j := 0; j < nx; j++ {
				w[i*nx+j] = 4*ri[j] - ri[(j+1)%nx] - ri[(j-1+nx)%nx] - up[j] - dn[j]
			}
		}
	}
	applyA()
	var gammaOld, alpha, beta float64
	for it := 0; it < iters; it++ {
		sums := [3]float64{}
		for i := 0; i < n; i++ {
			ri := r[nx+i]
			sums[0] += ri * ri
			sums[1] += ri * w[i]
			sums[2] += math.Abs(ri)
		}
		gamma, delta := sums[0], sums[1]
		if it == 0 {
			initial = math.Sqrt(gamma)
			alpha = gamma / delta
			copy(pv, r[nx:nx+n])
			copy(q, w)
		} else {
			beta = gamma / gammaOld
			alpha = gamma / (delta - beta*gamma/alpha)
			for i := 0; i < n; i++ {
				pv[i] = r[nx+i] + beta*pv[i]
				q[i] = w[i] + beta*q[i]
			}
		}
		gammaOld = gamma
		for i := 0; i < n; i++ {
			x[i] += alpha * pv[i]
			r[nx+i] -= alpha * q[i]
		}
		applyA()
	}
	var rr float64
	for i := 0; i < n; i++ {
		rr += r[nx+i] * r[nx+i]
	}
	return initial, math.Sqrt(rr)
}

func TestSingleImageMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{NX: 16, NY: 32, Iters: 60},
		{NX: 3, NY: 5, Iters: 7},
		{NX: 17, NY: 9, Iters: 30, Pull: true},
	} {
		res := run(t, caf.MPI, 1, cfg)
		init, final := referenceCG(cfg.NX, cfg.NY, cfg.Iters)
		if res.InitialNorm != init || res.FinalNorm != final {
			t.Errorf("%+v: norms %g/%g, reference %g/%g", cfg, res.InitialNorm, res.FinalNorm, init, final)
		}
	}
}

func TestSingleImageMatchesSerial(t *testing.T) {
	one := run(t, caf.MPI, 1, Config{NX: 12, NY: 24, Iters: 25})
	four := run(t, caf.MPI, 4, Config{NX: 12, NY: 24, Iters: 25})
	if math.Abs(one.FinalNorm-four.FinalNorm) > 1e-9*math.Max(1, one.FinalNorm) {
		t.Errorf("decomposition changed the numerics: 1 image %g vs 4 images %g", one.FinalNorm, four.FinalNorm)
	}
}

func TestDualRuntimeAccounting(t *testing.T) {
	// CAF-MPI: one shared runtime. CAF-GASNet: GlobalSum forces a second
	// MPI runtime; the memory footprint must reflect both (Figure 1).
	mpiRes := run(t, caf.MPI, 2, Config{NX: 8, NY: 8, Iters: 3})
	gnRes := run(t, caf.GASNet, 2, Config{NX: 8, NY: 8, Iters: 3})
	if mpiRes.DualRuntime {
		t.Error("CAF-MPI CGPOP should share one runtime")
	}
	if !gnRes.DualRuntime {
		t.Error("CAF-GASNet CGPOP must initialize a second MPI runtime")
	}
	if gnRes.RuntimeMemory <= mpiRes.RuntimeMemory {
		t.Errorf("duplicated runtimes (%d bytes) should cost more than the shared one (%d bytes)",
			gnRes.RuntimeMemory, mpiRes.RuntimeMemory)
	}
}

func TestValidation(t *testing.T) {
	c := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	if err := caf.Run(3, c, func(im *caf.Image) error {
		if _, err := Run(im, Config{NX: 8, NY: 16, Iters: 1}); err == nil {
			return fmt.Errorf("NY=16 on 3 images accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
