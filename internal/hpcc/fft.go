package hpcc

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"cafmpi/caf"
)

// FFTConfig parameterizes the distributed FFT benchmark.
type FFTConfig struct {
	// LogSize: the transform has m = 1<<LogSize complex points.
	LogSize int
	// Verify runs the inverse transform and checks the round trip against
	// the original signal.
	Verify bool
}

// FFTResult reports the measurement.
type FFTResult struct {
	GFlops   float64
	Points   int64
	Seconds  float64
	MaxError float64 // round-trip error (Verify only)
	Verified bool
}

// FFT runs the HPCC FFT benchmark: a 1-D complex DFT of size m computed
// with the transpose (four-step) formulation the CAF 2.0 port uses — an
// initial permutation transpose, a local FFT phase, a twiddle-multiplied
// transpose, a second local FFT phase, and a final transpose back to
// natural order: three all-to-alls in total, matching the paper's Figure 8
// decomposition. Performance is 5·m·log2(m)/t.
func FFT(im *caf.Image, cfg FFTConfig) (FFTResult, error) {
	p := im.N()
	m := 1 << uint(cfg.LogSize)
	n1 := 1 << uint((cfg.LogSize+1)/2)
	n2 := m / n1
	if n1%p != 0 || n2%p != 0 {
		return FFTResult{}, fmt.Errorf("hpcc: FFT of 2^%d points cannot be laid out on %d images (need P | %d and P | %d)", cfg.LogSize, p, n1, n2)
	}

	// Input signal in natural order, distributed contiguously: image q owns
	// x[q*m/P : (q+1)*m/P), viewed as n2/P rows of an n2 x n1 matrix.
	chunk := m / p
	x := make([]complex128, chunk)
	for i := range x {
		x[i] = fftSample(im.ID()*chunk + i)
	}

	f := newFFTEngine(im, n1, n2)
	if err := im.World().Barrier(); err != nil {
		return FFTResult{}, err
	}
	t0 := im.Now()
	out, err := f.forward(x)
	if err != nil {
		return FFTResult{}, err
	}
	if err := im.World().Barrier(); err != nil {
		return FFTResult{}, err
	}
	seconds := im.Now() - t0

	res := FFTResult{Points: int64(m), Seconds: seconds}
	if seconds > 0 {
		res.GFlops = 5 * float64(m) * float64(cfg.LogSize) / seconds / 1e9
	}

	if cfg.Verify {
		back, err := f.inverse(out)
		if err != nil {
			return res, err
		}
		maxe := 0.0
		for i := range back {
			if d := cmplx.Abs(back[i] - fftSample(im.ID()*chunk+i)); d > maxe {
				maxe = d
			}
		}
		buf := []float64{maxe}
		outMax := make([]float64, 1)
		if err := im.World().Allreduce(caf.F64Bytes(buf), caf.F64Bytes(outMax), caf.Float64, caf.OpMax); err != nil {
			return res, err
		}
		res.MaxError = outMax[0]
		res.Verified = true
	}
	return res, nil
}

// fftSample generates the deterministic input signal.
func fftSample(i int) complex128 {
	s := uint64(i)*0x9E3779B97F4A7C15 + 0x1234567
	s ^= s >> 29
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 32
	re := float64(int32(s))/float64(1<<31) + 0.25
	im := float64(int32(s>>32)) / float64(1<<31)
	return complex(re, im)
}

// fftEngine holds the distributed layout and twiddle tables.
type fftEngine struct {
	im     *caf.Image
	n1, n2 int
	p      int
	w1, w2 []complex128 // per-phase FFT twiddles
}

func newFFTEngine(im *caf.Image, n1, n2 int) *fftEngine {
	return &fftEngine{
		im: im, n1: n1, n2: n2, p: im.N(),
		w1: fftRoots(n1), w2: fftRoots(n2),
	}
}

// fftRoots precomputes e^{-2πik/n} for k < n/2.
func fftRoots(n int) []complex128 {
	w := make([]complex128, n/2)
	for k := range w {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang) // == cmplx.Exp(complex(0, ang)), bit for bit
		w[k] = complex(c, s)
	}
	return w
}

// forward computes the DFT of the distributed vector (see FFT).
func (f *fftEngine) forward(x []complex128) ([]complex128, error) {
	return f.run(x, false)
}

// inverse computes the inverse DFT via conj(FFT(conj(x)))/m.
func (f *fftEngine) inverse(x []complex128) ([]complex128, error) {
	m := f.n1 * f.n2
	in := make([]complex128, len(x))
	for i := range x {
		in[i] = cmplx.Conj(x[i])
	}
	out, err := f.run(in, false)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = cmplx.Conj(out[i]) / complex(float64(m), 0)
	}
	return out, nil
}

// run executes permute-transpose, phase I, twiddle transpose, phase II, and
// the final transpose.
func (f *fftEngine) run(x []complex128, _ bool) ([]complex128, error) {
	im := f.im
	n1, n2, m := f.n1, f.n2, f.n1*f.n2
	logN1 := bits.TrailingZeros(uint(n1))
	logN2 := bits.TrailingZeros(uint(n2))

	// Transpose 1: from natural order (n2 x n1 by rows) to A[j1][j2]
	// (n1 x n2 by rows).
	a, err := f.transpose(x, n2, n1)
	if err != nil {
		return nil, err
	}
	// Phase I: n2-point FFT of each local row of A, then twiddle by
	// w_m^{j1*k2}.
	rows := n1 / f.p
	base := im.World().Rank() * rows
	for r := 0; r < rows; r++ {
		fftRow(a[r*n2:(r+1)*n2], f.w2)
	}
	im.Compute(int64(rows) * 5 * int64(n2) * int64(logN2))
	for r := 0; r < rows; r++ {
		j1 := base + r
		for k2 := 0; k2 < n2; k2++ {
			ang := -2 * math.Pi * float64(j1) * float64(k2) / float64(m)
			s, c := math.Sincos(ang)
			a[r*n2+k2] *= complex(c, s)
		}
	}
	im.Compute(int64(rows) * int64(n2) * 8)

	// Transpose 2: to B[k2][j1] (n2 x n1 by rows).
	b, err := f.transpose(a, n1, n2)
	if err != nil {
		return nil, err
	}
	// Phase II: n1-point FFT of each local row.
	rows = n2 / f.p
	for r := 0; r < rows; r++ {
		fftRow(b[r*n1:(r+1)*n1], f.w1)
	}
	im.Compute(int64(rows) * 5 * int64(n1) * int64(logN1))

	// Transpose 3: b is n2 x n1 (rows k2); its transpose is the natural
	// output order O[k1][k2] (n1 x n2 by rows).
	return f.transpose(b, n2, n1)
}

// transpose redistributes a row-distributed R x C matrix into its C x R
// transpose (also row-distributed) with one all-to-all: pack blocks per
// destination, exchange, unpack. R and C are the source dimensions; the
// local slice holds R/P rows of length C.
func (f *fftEngine) transpose(local []complex128, r, c int) ([]complex128, error) {
	im := f.im
	p := f.p
	myRows := r / p  // source rows held here
	outRows := c / p // transposed rows held here afterwards
	blk := myRows * outRows

	send := make([]complex128, blk*p)
	for t := 0; t < p; t++ {
		for i := 0; i < myRows; i++ {
			for j := 0; j < outRows; j++ {
				send[t*blk+i*outRows+j] = local[i*c+t*outRows+j]
			}
		}
	}
	im.MemWork(int64(len(send)) * 16)

	recv := make([]complex128, blk*p)
	if err := im.World().Alltoall(caf.C128Bytes(send), caf.C128Bytes(recv)); err != nil {
		return nil, err
	}

	out := make([]complex128, outRows*r)
	for s := 0; s < p; s++ {
		for i := 0; i < myRows; i++ {
			for j := 0; j < outRows; j++ {
				// Element (row s*myRows+i, col myBase+j) of the source is
				// element (row j, col s*myRows+i) of the transpose.
				out[j*r+s*myRows+i] = recv[s*blk+i*outRows+j]
			}
		}
	}
	im.MemWork(int64(len(out)) * 16)
	return out, nil
}

// fftRow computes an in-place radix-2 decimation-in-time FFT of a row whose
// length matches the twiddle table (len(row) == 2*len(w)).
func fftRow(row []complex128, w []complex128) {
	n := len(row)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			row[i], row[j] = row[j], row[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				tw := w[k*step]
				a := row[start+k]
				b := row[start+k+half] * tw
				row[start+k] = a + b
				row[start+k+half] = a - b
			}
		}
	}
}
