package signal

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Batched structure-of-arrays kernels. A Plane stores the I and Q sample
// sequences of a waveform in two flat float64 slices, so the hot kernels
// (synthesis, gain fitting, cancellation, envelope test, demodulation) run
// as straight-line loops over contiguous memory: the compiler eliminates
// bounds checks, and independent accumulator chains keep both FP ports
// busy instead of serialising on one complex accumulator.
//
// These are the only signal kernels: the channel runs them, and the
// ancrfid facade runs them on Waveforms through SetWaveform and Waveform.
// Each is bit-identical to a scalar complex128 loop kept as a test oracle
// (scalar_test.go): every output value is produced by the exact same
// sequence of floating-point operations, in the same order. (Go's complex
// multiply lowers to the naive four-multiply form with individually
// rounded parts, which is exactly what the plane loops spell out;
// conjugation and negation are exact, so Hermitian mirrors reuse the
// transposed dot product instead of recomputing it.) The only deliberate
// exception is EnvelopeFlatPlane's fast path, which uses reassociated
// moment sums to *bound* the decision — whenever the bound is not
// conclusive it falls back to the exact scalar-order loop, so the returned
// boolean is always the one the scalar test computes.
// FuzzBatchedSignalEquivalence pins all of this.

// Plane is the structure-of-arrays layout of a Waveform: Re holds the
// in-phase (real) samples and Im the quadrature (imaginary) samples.
// Both slices always have equal length.
type Plane struct {
	Re, Im []float64
}

// Len returns the number of samples.
func (p *Plane) Len() int { return len(p.Re) }

// Reset sizes the plane to n samples, reusing capacity, and zeroes them.
func (p *Plane) Reset(n int) {
	if cap(p.Re) < n {
		p.Re = make([]float64, n)
		p.Im = make([]float64, n)
		return
	}
	p.Re = p.Re[:n]
	p.Im = p.Im[:n]
	clear(p.Re)
	clear(p.Im)
}

// resize sizes the plane to n samples, reusing capacity, without zeroing.
func (p *Plane) resize(n int) {
	if cap(p.Re) < n {
		p.Re = make([]float64, n)
		p.Im = make([]float64, n)
		return
	}
	p.Re = p.Re[:n]
	p.Im = p.Im[:n]
}

// SetWaveform copies the interleaved waveform into the plane.
func (p *Plane) SetWaveform(w Waveform) {
	p.resize(len(w))
	for i, s := range w {
		p.Re[i] = real(s)
		p.Im[i] = imag(s)
	}
}

// Waveform interleaves the plane back into a complex waveform, appending
// to dst[:0]'s backing array.
func (p *Plane) Waveform(dst Waveform) Waveform {
	dst = dst[:0]
	for i := range p.Re {
		dst = append(dst, complex(p.Re[i], p.Im[i]))
	}
	return dst
}

// CopyFrom makes p an independent copy of src.
func (p *Plane) CopyFrom(src *Plane) {
	p.resize(src.Len())
	copy(p.Re, src.Re)
	copy(p.Im, src.Im)
}

// ModulateInto is Modulate writing into a reusable plane. Both walk the
// shared MSK phase-state table (see msk.go).
func ModulateInto(p *Plane, data []byte, nbits, spb int) {
	mskTables.modulateInto(p, data, nbits, spb)
}

// AccumulateScaledRef adds a gain-scaled reference into p sample-wise,
// p += ref * g, reading the reference through its phase-state indices. It
// is bit-identical to `rx[i] += ref[i] * g` over the expanded complex128
// samples.
func (p *Plane) AccumulateScaledRef(ref *Ref, g complex128) {
	gr, gi := real(g), imag(g)
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	st := ref.st[:n]
	tre, tim := ref.t.re, ref.t.im
	for k := range pr {
		s := st[k]
		sr, si := tre[s], tim[s]
		pr[k] += sr*gr - si*gi
		pi[k] += sr*gi + si*gr
	}
}

// AddNoisePlane adds complex AWGN with per-sample standard deviation sigma
// (sigma^2 split evenly between I and Q) in place, drawing the generator I
// then Q per sample. The deviates come from rng.ZigNormFloat64, whose
// common path has no log or sqrt.
func AddNoisePlane(p *Plane, sigma float64, r *rng.Source) {
	if sigma <= 0 {
		return
	}
	s := sigma / math.Sqrt2
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	for k := range pr {
		pr[k] += s * r.ZigNormFloat64()
		pi[k] += s * r.ZigNormFloat64()
	}
}

// DecodeIDPlane demodulates a 96-bit MSK waveform (pilot sample first, as
// ModulateInto writes it) and reports whether the embedded CRC verifies.
// This is how the reader tells a clean singleton, or a fully cancelled
// collision residual, from garbage. The per-bit decision integrates
// imag(w[n] * conj(w[n-1])) over the bit interval, so it is gain- and
// phase-offset invariant.
func DecodeIDPlane(p *Plane, spb int) (tagid.ID, bool) {
	if p.Len() != 1+tagid.Bits*spb {
		return tagid.ID{}, false
	}
	var id tagid.ID
	re, im := p.Re, p.Im[:len(p.Re)]
	for i := 0; i < tagid.Bits; i++ {
		var ai float64
		base := 1 + i*spb
		for s := 0; s < spb; s++ {
			xr, xi := re[base+s], im[base+s]
			yr, yi := re[base+s-1], im[base+s-1]
			ai += xi*yr - xr*yi
		}
		// A set-on-condition instead of a branch: on noisy samples the
		// sign of ai is unpredictable.
		var bit byte
		if ai > 0 {
			bit = 1
		}
		id[i/8] |= bit << (7 - i%8)
	}
	return id, id.Valid()
}

// EnvelopeFlatPlane reports whether the waveform has the constant envelope
// of a single MSK transmission: the magnitude standard deviation must sit
// within 3*noiseSigma plus 2% of the mean magnitude. Readers use it to
// reject capture-effect decodes — the stronger of two superimposed MSK
// signals often demodulates with a valid CRC, but the mix's envelope gives
// the collision away.
//
// The fast path makes one branchless pass accumulating the first two
// moments of the squared magnitude X = |s|^2 (reassociated into
// independent partial sums, so the loop is add/mul throughput-bound
// instead of sqrt throughput-bound like the exact test) and decides from a
// rigorous envelope bound:
//
//	Var(m) <= E[(m - sqrt(q))^2] = E[(X-q)^2 / (m + sqrt(q))^2] <= Var(X)/q
//
// for m = |s| >= 0 and q = E[X], hence sd <= sqrt(Var(X)/q) and
// mean = E[m] >= sqrt(q - Var(X)/q). When those bounds (inflated by a
// tolerance covering the reassociation error) prove the scalar test would
// accept, the answer is true without touching a square root per sample;
// anything else — including every rejection — falls back to the exact
// one-pass loop over E[m] and E[m^2], so the decision is always the one
// the scalar oracle computes. That loop forms the variance as
// E[m^2] - E[m]^2; the absolute error of the subtraction (~machine epsilon
// * mean^2) is ten orders of magnitude below the 2% guard.
func EnvelopeFlatPlane(p *Plane, noiseSigma float64) bool {
	n := p.Len()
	if n == 0 {
		return true
	}
	re, im := p.Re, p.Im[:len(p.Re)]
	var s0, s1, q0, q1 float64
	k := 0
	for ; k+2 <= n; k += 2 {
		x0 := re[k]*re[k] + im[k]*im[k]
		x1 := re[k+1]*re[k+1] + im[k+1]*im[k+1]
		s0 += x0
		q0 += x0 * x0
		s1 += x1
		q1 += x1 * x1
	}
	if k < n {
		x := re[k]*re[k] + im[k]*im[k]
		s0 += x
		q0 += x * x
	}
	nf := float64(n)
	q := (s0 + s1) / nf
	if q > 0 {
		varX := (q0+q1)/nf - q*q
		if varX < 0 {
			varX = 0
		}
		vq := varX / q
		mLo2 := q - vq
		if mLo2 < 0 {
			mLo2 = 0
		}
		// tol absorbs the difference between the reassociated moments here
		// and the sequential sums of the scalar loop (relative error
		// ~n*2^-53, amplified by the variance cancellation to ~1e-7 absolute
		// in the worst perfectly-flat case); the accept margin of a true
		// singleton is ~1e-2, so the guard band costs nothing.
		tol := 1e-5 + 1e-9*q
		sdHi := math.Sqrt(vq)
		mLo := math.Sqrt(mLo2)
		if sdHi+tol <= 3*noiseSigma+0.02*(mLo-tol) {
			return true
		}
	}
	// Inconclusive: run the scalar test's exact operation sequence.
	var sum, sumsq float64
	for k := 0; k < n; k++ {
		msq := re[k]*re[k] + im[k]*im[k]
		sum += math.Sqrt(msq)
		sumsq += msq
	}
	mean := sum / nf
	varsum := sumsq/nf - mean*mean
	if varsum < 0 {
		varsum = 0
	}
	sd := math.Sqrt(varsum)
	return sd <= 3*noiseSigma+0.02*mean
}

// EstimateGainsPlane jointly least-squares-fits the complex gains of the
// reference planes inside mixed: it solves min ||mixed - R g||^2 where the
// columns of R are the references. With one reference this is the
// matched-filter estimate; with several it is the joint successive
// interference cancellation step used to peel multi-tag collisions. The
// gains are appended to dst[:0]'s backing array (grown as needed), and the
// normal equations (R^H R) g = R^H y are built with fused dot-product
// loops in the scratch buffer. Returns nil when the system is singular
// (e.g. two identical references). The Gram matrix is Hermitian, so
// only the upper triangle is computed; the mirrored entry a[j][i] =
// conj(a[i][j]) is bit-identical to the scalar path's independent dot
// product because negation is exact and IEEE rounding is sign-symmetric
// (the one corner case, an imaginary part that accumulates to exactly
// zero, is recomputed in scalar order). Self-products have an exactly-zero
// imaginary part in the scalar path too (each term is p - p for the same
// rounded product p), so they are stored as real. The result is
// bit-identical to one independent complex128 dot product per entry.
func (s *GainScratch) EstimateGainsPlane(dst []complex128, mixed *Plane, refs []*Plane) []complex128 {
	m := len(refs)
	if m == 0 {
		return nil
	}
	if cap(s.buf) < m*m+m {
		s.buf = make([]complex128, m*m+m)
	}
	a := s.buf[:m*m]
	b := s.buf[m*m : m*m+m]
	n := mixed.Len()
	mr, mi := mixed.Re[:n], mixed.Im[:n]
	for i := 0; i < m; i++ {
		// Fused pass: the reference's self-energy and its correlation with
		// the recording share one loop (three independent accumulator
		// chains, each in the scalar path's per-sample order).
		xr, xi := refs[i].Re[:n], refs[i].Im[:n]
		var sr, br, bi float64
		for k := range xr {
			r, q := xr[k], xi[k]
			sr += r*r + q*q
			br += r*mr[k] + q*mi[k]
			bi += r*mi[k] - q*mr[k]
		}
		a[i*m+i] = complex(sr, 0)
		b[i] = complex(br, bi)
		for j := i + 1; j < m; j++ {
			ur, ui := refs[j].Re[:n], refs[j].Im[:n]
			var dr, di float64
			for k := range xr {
				r, q := xr[k], xi[k]
				dr += r*ur[k] + q*ui[k]
				di += r*ui[k] - q*ur[k]
			}
			a[i*m+j] = complex(dr, di)
			if di == 0 {
				// An exactly-zero imaginary part can carry a different zero
				// sign through the mirrored accumulation; recompute the
				// transposed dot's imaginary part in its own scalar order.
				di = 0
				for k := range xr {
					di += ur[k]*xi[k] - ui[k]*xr[k]
				}
				a[j*m+i] = complex(dr, di)
			} else {
				a[j*m+i] = complex(dr, -di)
			}
		}
	}
	if cap(dst) < m {
		dst = make([]complex128, m)
	}
	dst = dst[:m]
	if !solveComplex(a, b, dst, m) {
		return nil
	}
	return dst
}

// CancelIntoPlane subtracts gain-weighted references from mixed, dst =
// mixed - sum_k gains[k] * refs[k], one reference at a time in sample
// order, and returns dst. dst must not alias any of the refs; it may be
// (and typically is) a reusable buffer.
func CancelIntoPlane(dst, mixed *Plane, refs []*Plane, gains []complex128) *Plane {
	n := mixed.Len()
	if dst != mixed {
		dst.CopyFrom(mixed)
	}
	dr, di := dst.Re[:n], dst.Im[:n]
	for k, ref := range refs {
		g := gains[k]
		gr, gi := real(g), imag(g)
		rr, ri := ref.Re[:n], ref.Im[:n]
		for i := range dr {
			sr, si := rr[i], ri[i]
			dr[i] -= sr*gr - si*gi
			di[i] -= sr*gi + si*gr
		}
	}
	return dst
}
