package signal

import (
	"math"
	"math/cmplx"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// The scalar complex128 oracle of the plane kernels in soa.go. Each
// function here is the straightforward loop a plane kernel must match bit
// for bit; FuzzBatchedSignalEquivalence and the Test*BitIdentical tests
// compare the two, and the ...Scalar benchmarks keep the loops timed.

// AddNoise adds complex AWGN with per-sample standard deviation sigma
// (sigma^2 split evenly between I and Q) in place and returns w, drawing
// the ziggurat sampler I then Q per sample.
func AddNoise(w Waveform, sigma float64, r *rng.Source) Waveform {
	if sigma <= 0 {
		return w
	}
	s := sigma / math.Sqrt2
	for i := range w {
		w[i] += complex(s*r.ZigNormFloat64(), s*r.ZigNormFloat64())
	}
	return w
}

// Demodulate recovers nbits bits from an MSK waveform produced by Modulate
// (pilot sample first) by integrating the differential phase over each bit
// interval. It is gain- and phase-offset invariant.
func Demodulate(w Waveform, nbits, spb int) []byte {
	out := make([]byte, (nbits+7)/8)
	demodulateInto(out, w, nbits, spb)
	return out
}

// demodulateInto sets the demodulated bits in out, which must be zeroed and
// at least ceil(nbits/8) long.
func demodulateInto(out []byte, w Waveform, nbits, spb int) {
	for i := 0; i < nbits; i++ {
		var acc complex128
		base := 1 + i*spb
		for s := 0; s < spb; s++ {
			acc += w[base+s] * cmplx.Conj(w[base+s-1])
		}
		if imag(acc) > 0 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
}

// DecodeID demodulates a 96-bit waveform and reports whether the embedded
// CRC verifies.
func DecodeID(w Waveform, spb int) (tagid.ID, bool) {
	if len(w) != 1+tagid.Bits*spb {
		return tagid.ID{}, false
	}
	var id tagid.ID
	demodulateInto(id[:], w, tagid.Bits, spb)
	return id, id.Valid()
}

// EnvelopeFlat reports whether the magnitude standard deviation sits within
// 3*noiseSigma plus 2% of the mean magnitude, from one pass accumulating
// the first two magnitude moments.
func EnvelopeFlat(w Waveform, noiseSigma float64) bool {
	if len(w) == 0 {
		return true
	}
	var sum, sumsq float64
	for _, s := range w {
		re, im := real(s), imag(s)
		msq := re*re + im*im
		sum += math.Sqrt(msq)
		sumsq += msq
	}
	n := float64(len(w))
	mean := sum / n
	varsum := sumsq/n - mean*mean
	if varsum < 0 {
		varsum = 0
	}
	sd := math.Sqrt(varsum)
	return sd <= 3*noiseSigma+0.02*mean
}

// EstimateGains jointly least-squares-fits the complex gains of the
// reference waveforms inside mixed.
func EstimateGains(mixed Waveform, refs []Waveform) []complex128 {
	var s GainScratch
	return s.EstimateGains(nil, mixed, refs)
}

// EstimateGains builds the normal equations (R^H R) g = R^H y with one
// independent complex dot product per entry and solves them. Returns nil
// when the system is singular.
func (s *GainScratch) EstimateGains(dst []complex128, mixed Waveform, refs []Waveform) []complex128 {
	m := len(refs)
	if m == 0 {
		return nil
	}
	if cap(s.buf) < m*m+m {
		s.buf = make([]complex128, m*m+m)
	}
	a := s.buf[:m*m]
	b := s.buf[m*m : m*m+m]
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var dot complex128
			for n := range mixed {
				dot += cmplx.Conj(refs[i][n]) * refs[j][n]
			}
			a[i*m+j] = dot
		}
		var dot complex128
		for n := range mixed {
			dot += cmplx.Conj(refs[i][n]) * mixed[n]
		}
		b[i] = dot
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

// Cancel subtracts gain-weighted references from mixed and returns the
// residual waveform.
func Cancel(mixed Waveform, refs []Waveform, gains []complex128) Waveform {
	return CancelInto(nil, mixed, refs, gains)
}

// CancelInto is Cancel into a reusable destination, which must not alias
// any of the refs.
func CancelInto(dst, mixed Waveform, refs []Waveform, gains []complex128) Waveform {
	if cap(dst) < len(mixed) {
		dst = make(Waveform, len(mixed))
	}
	dst = dst[:len(mixed)]
	copy(dst, mixed)
	for k, ref := range refs {
		g := gains[k]
		for i := range dst {
			dst[i] -= g * ref[i]
		}
	}
	return dst
}

// ModulateIDInto is ModulateID writing into a reusable plane.
func ModulateIDInto(p *Plane, id tagid.ID, spb int) {
	ModulateInto(p, id.Bytes(), tagid.Bits, spb)
}

// AccumulateScaled adds gain-scaled ref into p sample-wise: p += ref * g,
// bit-identical to `rx[i] += ref[i] * g` over complex128.
func (p *Plane) AccumulateScaled(ref *Plane, g complex128) {
	gr, gi := real(g), imag(g)
	n := p.Len()
	pr, pi := p.Re[:n], p.Im[:n]
	rr, ri := ref.Re[:n], ref.Im[:n]
	for k := range pr {
		sr, si := rr[k], ri[k]
		pr[k] += sr*gr - si*gi
		pi[k] += sr*gi + si*gr
	}
}
