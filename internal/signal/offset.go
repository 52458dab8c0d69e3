package signal

import (
	"math"
	"math/cmplx"
)

// Carrier-frequency offset estimation. Independent tag oscillators never
// sit exactly on the reader's frequency: a tag's contribution to a
// recorded slot is g * e^(i*dw*n) * ref[n], a complex gain g plus a linear
// phase ramp dw (radians per sample). Katti et al. handle the same effect
// in ANC; the canceller here estimates (g, dw) per constituent so that
// collision records resolve even when tags drift.

// maxOffsetSearch bounds the per-sample offset magnitude the estimator
// searches (radians/sample). MSK tolerates offsets well below the
// per-sample modulation step of pi/(2*spb); a quarter of that step is a
// generous real-world bound.
func maxOffsetSearch(spb int) float64 {
	return math.Pi / (8 * float64(spb))
}

// EstimateGainAndOffset fits mixed ~ g * e^(i*dw*n) * ref[n] by scanning
// candidate offsets and taking, for each, the closed-form least-squares
// gain; the (g, dw) with the largest correlation magnitude wins, refined
// by two rounds of golden-section search around the best coarse candidate.
// The other constituents of the mix act as noise on the estimate, exactly
// as in single-gain estimation.
func EstimateGainAndOffset(mixed, ref Waveform, spb int) (gain complex128, offset float64) {
	if len(mixed) != len(ref) || len(ref) == 0 {
		return 0, 0
	}
	bound := maxOffsetSearch(spb)
	// Coarse scan: the correlation's main lobe has width ~2pi/len, so a
	// step of pi/(2*len) cannot skip it.
	step := math.Pi / (2 * float64(len(ref)))
	best, bestMag := 0.0, -1.0
	for dw := -bound; dw <= bound; dw += step {
		if mag := offsetCorrelation(mixed, ref, dw); mag > bestMag {
			bestMag, best = mag, dw
		}
	}
	// Golden-section refinement within one coarse step.
	lo, hi := best-step, best+step
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := offsetCorrelation(mixed, ref, a), offsetCorrelation(mixed, ref, b)
	for i := 0; i < 40; i++ {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = offsetCorrelation(mixed, ref, b)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = offsetCorrelation(mixed, ref, a)
		}
	}
	offset = (lo + hi) / 2
	gain = lsGainAtOffset(mixed, ref, offset)
	return gain, offset
}

// offsetCorrelation returns |<mixed, e^(i*dw*n)*ref>|, the matched-filter
// response at candidate offset dw.
func offsetCorrelation(mixed, ref Waveform, dw float64) float64 {
	var dot complex128
	rot := Cis(dw)
	phase := complex(1, 0)
	for n := range ref {
		dot += cmplx.Conj(ref[n]*phase) * mixed[n]
		phase *= rot
	}
	return cmplx.Abs(dot)
}

// lsGainAtOffset returns the least-squares gain of the offset-rotated
// reference inside mixed.
func lsGainAtOffset(mixed, ref Waveform, dw float64) complex128 {
	var dot, energy complex128
	rot := Cis(dw)
	phase := complex(1, 0)
	for n := range ref {
		r := ref[n] * phase
		dot += cmplx.Conj(r) * mixed[n]
		energy += cmplx.Conj(r) * r
		phase *= rot
	}
	if energy == 0 {
		return 0
	}
	return dot / energy
}

// CancelWithOffset subtracts gain * e^(i*offset*n) * ref from mixed and
// returns the residual.
func CancelWithOffset(mixed, ref Waveform, gain complex128, offset float64) Waveform {
	return CancelWithOffsetInto(nil, mixed, ref, gain, offset)
}

// CancelWithOffsetInto is CancelWithOffset with a caller-provided
// destination buffer. dst may be nil (a fresh buffer is allocated) or alias
// mixed (iterative peeling cancels in place); it must not alias ref.
func CancelWithOffsetInto(dst, mixed, ref Waveform, gain complex128, offset float64) Waveform {
	if cap(dst) < len(mixed) {
		dst = make(Waveform, len(mixed))
	}
	dst = dst[:len(mixed)]
	copy(dst, mixed)
	rot := Cis(offset)
	phase := complex(1, 0)
	for n := range ref {
		dst[n] -= gain * phase * ref[n]
		phase *= rot
	}
	return dst
}
