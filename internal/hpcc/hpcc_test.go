package hpcc

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"cafmpi/caf"
	"cafmpi/internal/fabric"
)

func testPlatform() *fabric.Params {
	p := fabric.Fusion
	p.Name = "test"
	p.GASNet.SRQ.Enabled = false
	return &p
}

func forBoth(t *testing.T, n int, fn func(*caf.Image) error) {
	t.Helper()
	for _, sub := range []caf.Substrate{caf.MPI, caf.GASNet} {
		sub := sub
		t.Run(string(sub), func(t *testing.T) {
			cfg := caf.Config{Substrate: sub, Platform: testPlatform(), Diag: caf.Diag{Trace: true}}
			if err := caf.Run(n, cfg, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- RandomAccess ---

func TestRaStartMatchesIteration(t *testing.T) {
	x := uint64(1)
	for n := int64(0); n < 200; n++ {
		want := x
		if got := raStart(n); got != want {
			t.Fatalf("raStart(%d) = %#x, want %#x", n, got, want)
		}
		x = raNext(x)
	}
	// Spot-check a long jump against direct iteration.
	const far = 100_000
	x = 1
	for i := 0; i < far; i++ {
		x = raNext(x)
	}
	if got := raStart(far); got != x {
		t.Fatalf("raStart(%d) = %#x, want %#x", far, got, x)
	}
}

func TestRandomAccessVerifies(t *testing.T) {
	forBoth(t, 4, func(im *caf.Image) error {
		res, err := RandomAccess(im, RAConfig{TableBits: 8, UpdatesPerImage: 600, BatchSize: 64, Verify: true})
		if err != nil {
			return err
		}
		if !res.Verified || res.Errors != 0 {
			return fmt.Errorf("RandomAccess verification failed: %+v", res)
		}
		if res.GUPS <= 0 || res.Updates != 4*600 {
			return fmt.Errorf("implausible result: %+v", res)
		}
		return nil
	})
}

func TestRandomAccessSingleImage(t *testing.T) {
	forBoth(t, 1, func(im *caf.Image) error {
		res, err := RandomAccess(im, RAConfig{TableBits: 6, UpdatesPerImage: 100, Verify: true})
		if err != nil {
			return err
		}
		if res.Errors != 0 {
			return fmt.Errorf("single-image RA failed verification")
		}
		return nil
	})
}

func TestRandomAccessRejectsNonPowerOfTwo(t *testing.T) {
	cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	err := caf.Run(3, cfg, func(im *caf.Image) error {
		_, err := RandomAccess(im, RAConfig{TableBits: 4})
		if err == nil {
			return fmt.Errorf("3 images accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- FFT ---

// directDFT is the O(n^2) reference.
func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestFFTRowAgainstDirectDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = fftSample(i + 7*n)
		}
		want := directDFT(x)
		got := append([]complex128(nil), x...)
		fftRow(got, fftRoots(n))
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: fftRow[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestTwiddlesMatchComplexExp(t *testing.T) {
	// The twiddles use math.Sincos directly; they must equal e^{iθ} as
	// cmplx.Exp forms it, bit for bit.
	const n = 1 << 12
	w := fftRoots(n)
	for k := range w {
		want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		if w[k] != want {
			t.Fatalf("fftRoots(%d)[%d] = %v, want %v", n, k, w[k], want)
		}
	}
}

func TestFFTRowLinearityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		const n = 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := range a {
			a[i] = fftSample(i + int(seed))
			b[i] = fftSample(i + int(seed) + 1000)
		}
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		w := fftRoots(n)
		fftRow(a, w)
		fftRow(b, w)
		fftRow(sum, w)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+b[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedFFTMatchesDirectDFT(t *testing.T) {
	const logSize = 8 // 256 points: feasible for the O(n^2) reference
	forBoth(t, 4, func(im *caf.Image) error {
		m := 1 << logSize
		chunk := m / im.N()
		f := newFFTEngine(im, 1<<((logSize+1)/2), m/(1<<((logSize+1)/2)))
		x := make([]complex128, chunk)
		for i := range x {
			x[i] = fftSample(im.ID()*chunk + i)
		}
		out, err := f.forward(x)
		if err != nil {
			return err
		}
		// Gather the distributed result and compare at image 0.
		all := make([]complex128, m)
		if err := im.World().Allgather(caf.C128Bytes(out), caf.C128Bytes(all)); err != nil {
			return err
		}
		if im.ID() == 0 {
			full := make([]complex128, m)
			for i := range full {
				full[i] = fftSample(i)
			}
			want := directDFT(full)
			for k := range want {
				if cmplx.Abs(all[k]-want[k]) > 1e-6*float64(m) {
					return fmt.Errorf("FFT[%d] = %v, want %v", k, all[k], want[k])
				}
			}
		}
		return im.World().Barrier()
	})
}

func TestFFTRoundTrip(t *testing.T) {
	forBoth(t, 4, func(im *caf.Image) error {
		res, err := FFT(im, FFTConfig{LogSize: 12, Verify: true})
		if err != nil {
			return err
		}
		if !res.Verified || res.MaxError > 1e-9 {
			return fmt.Errorf("FFT round trip error %g too large", res.MaxError)
		}
		if res.GFlops <= 0 || res.Points != 1<<12 {
			return fmt.Errorf("implausible FFT result: %+v", res)
		}
		return nil
	})
}

func TestFFTRejectsBadLayout(t *testing.T) {
	cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	if err := caf.Run(8, cfg, func(im *caf.Image) error {
		if _, err := FFT(im, FFTConfig{LogSize: 4}); err == nil {
			return fmt.Errorf("16-point FFT on 8 images accepted (4x4 layout needs P|4)")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// --- HPL ---

func TestHPLResidual(t *testing.T) {
	forBoth(t, 4, func(im *caf.Image) error {
		res, err := HPL(im, HPLConfig{N: 128, NB: 16, Verify: true})
		if err != nil {
			return err
		}
		if !res.Verified || res.Residual > 16 {
			return fmt.Errorf("HPL scaled residual %g too large", res.Residual)
		}
		if res.TFlops <= 0 {
			return fmt.Errorf("implausible HPL result: %+v", res)
		}
		return nil
	})
}

func TestHPLSingleImage(t *testing.T) {
	forBoth(t, 1, func(im *caf.Image) error {
		res, err := HPL(im, HPLConfig{N: 64, NB: 8, Verify: true})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("serial HPL residual %g", res.Residual)
		}
		return nil
	})
}

func TestHPLUnevenBlocks(t *testing.T) {
	// 3 images, 6 blocks: cyclic distribution exercises owner rotation.
	forBoth(t, 3, func(im *caf.Image) error {
		res, err := HPL(im, HPLConfig{N: 96, NB: 16, Verify: true})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("HPL residual %g with 3 images", res.Residual)
		}
		return nil
	})
}

func TestHPLValidation(t *testing.T) {
	cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	if err := caf.Run(2, cfg, func(im *caf.Image) error {
		if _, err := HPL(im, HPLConfig{N: 100, NB: 16}); err == nil {
			return fmt.Errorf("N not divisible by NB accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Property: the LU factors reproduce PA for random small matrices (checked
// through the solver residual on varied shapes).
func TestHPLShapesProperty(t *testing.T) {
	f := func(shape uint8) bool {
		nb := []int{8, 16}[int(shape)%2]
		blocks := int(shape)%3 + 2
		n := nb * blocks * 2
		ok := true
		cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
		err := caf.Run(2, cfg, func(im *caf.Image) error {
			res, err := HPL(im, HPLConfig{N: n, NB: nb, Verify: true})
			if err != nil {
				return err
			}
			if res.Residual > 16 {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// --- HPL 2-D ---

func TestHPL2DResidual(t *testing.T) {
	forBoth(t, 4, func(im *caf.Image) error { // 2x2 grid
		res, err := HPL2D(im, HPLConfig{N: 128, NB: 16, Verify: true})
		if err != nil {
			return err
		}
		if !res.Verified || res.Residual > 16 {
			return fmt.Errorf("HPL2D scaled residual %g too large", res.Residual)
		}
		if res.TFlops <= 0 {
			return fmt.Errorf("implausible result: %+v", res)
		}
		return nil
	})
}

func TestHPL2DRectangularGrid(t *testing.T) {
	forBoth(t, 8, func(im *caf.Image) error { // 2x4 grid
		res, err := HPL2D(im, HPLConfig{N: 128, NB: 16, Verify: true})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("2x4 grid residual %g", res.Residual)
		}
		return nil
	})
}

func TestHPL2DSingleImage(t *testing.T) {
	forBoth(t, 1, func(im *caf.Image) error {
		res, err := HPL2D(im, HPLConfig{N: 64, NB: 8, Verify: true})
		if err != nil {
			return err
		}
		if res.Residual > 16 {
			return fmt.Errorf("serial HPL2D residual %g", res.Residual)
		}
		return nil
	})
}

func TestHPL2DMatches1DFlops(t *testing.T) {
	// Both variants factor the same-order system; the 2-D layout must keep
	// more images busy at high P (its TFlops should be at least comparable).
	cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	var tf1, tf2 float64
	if err := caf.Run(16, cfg, func(im *caf.Image) error {
		r1, err := HPL(im, HPLConfig{N: 256, NB: 16})
		if err != nil {
			return err
		}
		r2, err := HPL2D(im, HPLConfig{N: 256, NB: 16})
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			tf1, tf2 = r1.TFlops, r2.TFlops
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tf2 <= 0 || tf1 <= 0 {
		t.Fatalf("implausible TFlops: 1D %g, 2D %g", tf1, tf2)
	}
	if tf2 < 0.5*tf1 {
		t.Errorf("2-D layout (%g TF) should not badly lose to 1-D (%g TF) at P=16", tf2, tf1)
	}
}

func TestHPL2DValidation(t *testing.T) {
	cfg := caf.Config{Substrate: caf.MPI, Platform: testPlatform()}
	if err := caf.Run(3, cfg, func(im *caf.Image) error {
		// 3 images -> 1x3 grid; 4 blocks not divisible by 3.
		if _, err := HPL2D(im, HPLConfig{N: 64, NB: 16}); err == nil {
			return fmt.Errorf("invalid block/grid split accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
