// Package cgpop implements the CGPOP miniapp the paper evaluates in §4.4:
// the conjugate-gradient solver extracted from LANL POP 2.0 (global ocean
// model), ported to a hybrid MPI+CAF form. Each solver iteration performs
// one halo exchange between neighboring subdomains — expressed with CAF
// coarray one-sided operations, in PUSH (put to neighbor halos) or PULL
// (get from neighbor boundaries) style — and one 3-word GlobalSum vector
// reduction performed with plain MPI, exercising both models in one code.
//
// Under CAF-MPI the GlobalSum reuses the runtime's own MPI library (full
// interoperability); under CAF-GASNet a second, independent MPI runtime is
// initialized alongside GASNet — the duplicated-runtime configuration whose
// memory cost Figure 1 quantifies.
package cgpop

import (
	"fmt"
	"math"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
	"cafmpi/internal/mpi"
)

// Config parameterizes the solver.
type Config struct {
	// NX, NY: global grid dimensions (5-point Laplacian). NY must be
	// divisible by the image count.
	NX, NY int
	// Iters: solver iterations to run (the paper measures fixed work).
	Iters int
	// Pull selects the PULL halo exchange (get-based); default is PUSH
	// (put-based).
	Pull bool
}

// Result reports the measurement.
type Result struct {
	Seconds     float64
	Iterations  int
	InitialNorm float64
	FinalNorm   float64
	// DualRuntime is true when the GlobalSum had to initialize a second
	// MPI runtime beside the CAF substrate (the CAF-GASNet configuration).
	DualRuntime bool
	// RuntimeMemory is the per-image memory footprint of all initialized
	// communication runtimes (Figure 1's quantity).
	RuntimeMemory int64
}

// Run executes the CGPOP solver.
func Run(im *caf.Image, cfg Config) (Result, error) {
	p := im.N()
	if cfg.NY%p != 0 {
		return Result{}, fmt.Errorf("cgpop: NY (%d) must be divisible by the image count (%d)", cfg.NY, p)
	}
	if cfg.NX < 3 || cfg.NY < 3 {
		return Result{}, fmt.Errorf("cgpop: grid %dx%d too small", cfg.NX, cfg.NY)
	}
	nx := cfg.NX
	rows := cfg.NY / p
	me := im.ID()

	// GlobalSum transport: the runtime's MPI under CAF-MPI, a second MPI
	// runtime under CAF-GASNet (as the original CGPOP-on-CAF2.0 did).
	var comm *mpi.Comm
	res := Result{Iterations: cfg.Iters}
	if env, err := caf.MPIEnv(im); err == nil {
		comm = env.CommWorld()
		res.RuntimeMemory = im.MemoryFootprint()
	} else {
		env := mpi.Init(im.Proc(), fabric.AttachNet(im.Proc().World(), im.Platform()))
		comm = env.CommWorld()
		res.DualRuntime = true
		res.RuntimeMemory = im.MemoryFootprint() + env.MemoryFootprint()
	}

	// The vector being multiplied each iteration lives in a coarray with
	// one halo row above and below: rows+2 rows of nx points.
	pad := (rows + 2) * nx
	rCo, err := im.AllocCoarray(im.World(), pad*8)
	if err != nil {
		return Result{}, err
	}
	defer rCo.Free()
	r := caf.BytesF64(rCo.Local()) // (rows+2) x nx, row-major, halo at 0 and rows+1
	evs, err := im.NewEvents(im.World(), 2)
	if err != nil {
		return Result{}, err
	}
	defer evs.Free()
	const evFromAbove, evFromBelow = 0, 1

	// Problem setup: A = 2-D 5-point Laplacian (Dirichlet), b = A·u_exact,
	// u_exact(gi, gj) = sin(row term of gi) * cos(column term of gj). The
	// factors are tabulated once: sinRow[k] is global row me*rows-1+k.
	sinRow := make([]float64, rows+2)
	for k := range sinRow {
		gi := me*rows - 1 + k
		sinRow[k] = math.Sin(math.Pi * float64(gi+1) / float64(cfg.NY+1))
	}
	cosCol := make([]float64, nx)
	for gj := range cosCol {
		cosCol[gj] = math.Cos(2 * math.Pi * float64(gj) / float64(nx))
	}
	b := make([]float64, rows*nx)
	for i := 0; i < rows; i++ {
		gi := me*rows + i
		s, sUp, sDn := sinRow[i+1], sinRow[i], sinRow[i+2]
		for j := 0; j < nx; j++ {
			jr, jl := j+1, j-1
			if jr == nx {
				jr = 0
			}
			if jl < 0 {
				jl = nx - 1
			}
			c := 4*(s*cosCol[j]) - s*cosCol[jr] - s*cosCol[jl]
			if gi+1 < cfg.NY {
				c -= sDn * cosCol[j]
			}
			if gi-1 >= 0 {
				c -= sUp * cosCol[j]
			}
			b[i*nx+j] = c
		}
	}

	n := rows * nx
	x := make([]float64, n)
	w := make([]float64, n)  // w = A r
	pv := make([]float64, n) // direction
	q := make([]float64, n)  // A p
	ri := r[nx : nx+n]       // interior rows of r

	halo := &haloExchanger{im: im, co: rCo, evs: evs, nx: nx, rows: rows, pull: cfg.Pull}

	// applyA computes w = A·r for the interior rows, using the halo, and in
	// the same sweep the next iteration's partial sums (r·r, r·w, |r|),
	// accumulated in ascending element order. The periodic column wrap is
	// peeled out of the row loop.
	var sums [3]float64
	applyA := func() error {
		if err := halo.exchange(); err != nil {
			return err
		}
		var s0, s1, s2 float64
		for i := 0; i < rows; i++ {
			up := r[i*nx : (i+1)*nx]
			mid := r[(i+1)*nx : (i+2)*nx]
			dn := r[(i+2)*nx : (i+3)*nx]
			dst := w[i*nx : (i+1)*nx]
			up, dn, dst = up[:len(mid)], dn[:len(mid)], dst[:len(mid)]
			last := len(mid) - 1

			v := 4*mid[0] - mid[1] - mid[last] - up[0] - dn[0]
			dst[0] = v
			s0 += mid[0] * mid[0]
			s1 += mid[0] * v
			s2 += math.Abs(mid[0])
			for j := 1; j < last; j++ {
				v = 4*mid[j] - mid[j+1] - mid[j-1] - up[j] - dn[j]
				dst[j] = v
				s0 += mid[j] * mid[j]
				s1 += mid[j] * v
				s2 += math.Abs(mid[j])
			}
			v = 4*mid[last] - mid[0] - mid[last-1] - up[last] - dn[last]
			dst[last] = v
			s0 += mid[last] * mid[last]
			s1 += mid[last] * v
			s2 += math.Abs(mid[last])
		}
		sums = [3]float64{s0, s1, s2}
		im.Compute(int64(n) * 6)
		return nil
	}
	// globalSum3 is CGPOP's GlobalSum: a 3-word vector MPI reduction.
	sumOut := make([]float64, 3)
	globalSum3 := func(v *[3]float64) error {
		if err := comm.Allreduce(mpi.F64Bytes(v[:]), mpi.F64Bytes(sumOut), mpi.Float64, mpi.OpSum); err != nil {
			return err
		}
		copy(v[:], sumOut)
		return nil
	}

	// r = b (x0 = 0), stored into the coarray interior.
	copy(ri, b)

	if err := im.World().Barrier(); err != nil {
		return Result{}, err
	}
	t0 := im.Now()

	// Chronopoulos-Gear CG: one fused reduction per iteration computing
	// (gamma = r·r, delta = r·w, norm tracking word). The host sweeps are
	// fused; the Compute charges keep their values and their order
	// relative to communication.
	if err := applyA(); err != nil {
		return Result{}, err
	}
	var gammaOld, alpha, beta float64
	for it := 0; it < cfg.Iters; it++ {
		im.Compute(int64(n) * 5) // the partial sums, formed in applyA
		if err := globalSum3(&sums); err != nil {
			return Result{}, err
		}
		gamma, delta := sums[0], sums[1]
		// Resliced to len(ri) so the compiler drops the bounds checks.
		x, pv, q, w := x[:len(ri)], pv[:len(ri)], q[:len(ri)], w[:len(ri)]
		if it == 0 {
			res.InitialNorm = math.Sqrt(gamma)
			alpha = gamma / delta
			for i := range ri {
				pv[i] = ri[i]
				q[i] = w[i]
				x[i] += alpha * pv[i]
				ri[i] -= alpha * q[i]
			}
		} else {
			beta = gamma / gammaOld
			alpha = gamma / (delta - beta*gamma/alpha)
			for i := range ri {
				pv[i] = ri[i] + beta*pv[i]
				q[i] = w[i] + beta*q[i]
				x[i] += alpha * pv[i]
				ri[i] -= alpha * q[i]
			}
			im.Compute(int64(n) * 4) // direction update
		}
		gammaOld = gamma
		im.Compute(int64(n) * 4) // x, r update
		if err := applyA(); err != nil {
			return Result{}, err
		}
	}

	if err := im.World().Barrier(); err != nil {
		return Result{}, err
	}
	res.Seconds = im.Now() - t0

	final := [3]float64{}
	for _, v := range ri {
		final[0] += v * v
	}
	if err := globalSum3(&final); err != nil {
		return Result{}, err
	}
	res.FinalNorm = math.Sqrt(final[0])
	return res, nil
}

// haloExchanger moves boundary rows between vertical neighbors through the
// coarray, in PUSH (put + notify) or PULL (notify-ready + get) style — the
// two variants the paper's Figures 11/12 compare.
type haloExchanger struct {
	im       *caf.Image
	co       *caf.Coarray
	evs      *caf.Events
	nx, rows int
	pull     bool
}

func (h *haloExchanger) exchange() error {
	me, p, nx := h.im.ID(), h.im.N(), h.nx
	rowBytes := nx * 8
	up, down := me-1, me+1
	local := caf.BytesF64(h.co.Local())
	const evFromAbove, evFromBelow = 0, 1

	if !h.pull {
		// PUSH: write my edge rows into the neighbors' halo rows.
		if up >= 0 {
			// My first interior row -> neighbor's bottom halo (row rows+1).
			if err := h.co.PutDeferred(up, (h.rows+1)*rowBytes, caf.F64Bytes(local[nx:2*nx])); err != nil {
				return err
			}
			if err := h.evs.Notify(up, evFromBelow); err != nil {
				return err
			}
		}
		if down < p {
			// My last interior row -> neighbor's top halo (row 0).
			if err := h.co.PutDeferred(down, 0, caf.F64Bytes(local[h.rows*nx:(h.rows+1)*nx])); err != nil {
				return err
			}
			if err := h.evs.Notify(down, evFromAbove); err != nil {
				return err
			}
		}
		if up >= 0 {
			if err := h.evs.Wait(evFromAbove); err != nil {
				return err
			}
		}
		if down < p {
			if err := h.evs.Wait(evFromBelow); err != nil {
				return err
			}
		}
		return nil
	}

	// PULL: announce my boundary rows are ready, then get the neighbors'.
	if up >= 0 {
		if err := h.evs.Notify(up, evFromBelow); err != nil {
			return err
		}
	}
	if down < p {
		if err := h.evs.Notify(down, evFromAbove); err != nil {
			return err
		}
	}
	if up >= 0 {
		if err := h.evs.Wait(evFromAbove); err != nil {
			return err
		}
		// Neighbor's last interior row -> my top halo.
		if err := h.co.Get(up, h.rows*rowBytes, caf.F64Bytes(local[:nx])); err != nil {
			return err
		}
	}
	if down < p {
		if err := h.evs.Wait(evFromBelow); err != nil {
			return err
		}
		// Neighbor's first interior row -> my bottom halo.
		if err := h.co.Get(down, rowBytes, caf.F64Bytes(local[(h.rows+1)*nx:(h.rows+2)*nx])); err != nil {
			return err
		}
	}
	return nil
}
