// Package signal implements the physical layer the paper's analog network
// coding relies on: MSK modulation over a complex-baseband channel, signal
// mixing (collisions), additive white Gaussian noise, the energy-equation
// amplitude estimator from Katti et al. that the paper reproduces in
// Section II-B, and interference cancellation — re-encoding a known tag ID,
// estimating its complex channel gain inside a mixed recording by least
// squares, subtracting it, and decoding what remains.
//
// The paper evaluates its protocols with a slot-level simulator that assumes
// "k-collision slots with k <= lambda are resolvable". This package removes
// the assumption: tests and examples resolve real superimposed MSK
// waveforms, and the signal-backed channel in package channel runs the full
// protocols over these waveforms.
//
// Demodulation, the envelope test, gain fitting, cancellation and noise
// run on one set of kernels over structure-of-arrays Planes (soa.go).
// Waveform is the interleaved form callers build collisions in; the
// ancrfid facade converts it to a Plane at the kernel boundary.
package signal

import (
	"math"
	"math/cmplx"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// DefaultSamplesPerBit is the oversampling factor used by the simulator.
// Four samples per bit keeps waveforms small while leaving enough samples
// for the gain estimators to average interference away.
const DefaultSamplesPerBit = 4

// phaseStepPerBit is the MSK phase advance over one bit: +pi/2 for a '1'
// and -pi/2 for a '0' (paper, Section II-B).
const phaseStepPerBit = math.Pi / 2

// Waveform is a complex-baseband sample sequence.
type Waveform []complex128

// Clone returns an independent copy of the waveform.
func (w Waveform) Clone() Waveform {
	c := make(Waveform, len(w))
	copy(c, w)
	return c
}

// Energy returns the mean squared magnitude of the waveform.
func (w Waveform) Energy() float64 {
	if len(w) == 0 {
		return 0
	}
	var e float64
	for _, s := range w {
		re, im := real(s), imag(s)
		e += re*re + im*im
	}
	return e / float64(len(w))
}

// Modulate MSK-modulates nbits bits (packed MSB-first in data) at spb
// samples per bit with unit amplitude and zero initial phase. The first
// sample is a pilot at the initial phase so that a differential demodulator
// has a reference for the first bit; the result therefore has
// 1 + nbits*spb samples. It shares ModulateInto's table walk (see msk.go).
func Modulate(data []byte, nbits, spb int) Waveform {
	var p Plane
	ModulateInto(&p, data, nbits, spb)
	return p.Waveform(make(Waveform, 0, p.Len()))
}

// ModulateID returns the canonical unit-gain waveform of a 96-bit tag ID.
// The reader regenerates this reference when it cancels a known tag out of
// a recorded collision.
func ModulateID(id tagid.ID, spb int) Waveform {
	return Modulate(id.Bytes(), tagid.Bits, spb)
}

// Scale returns the waveform multiplied by a complex channel gain
// (attenuation and phase shift).
func Scale(w Waveform, gain complex128) Waveform {
	out := make(Waveform, len(w))
	for i, s := range w {
		out[i] = s * gain
	}
	return out
}

// ApplyFrequencyOffset rotates the waveform by a per-sample phase increment,
// modelling the carrier-frequency offset between a tag's oscillator and the
// reader's. Independent oscillators always differ slightly; the offset makes
// the relative phase of two superimposed signals sweep the full circle over
// a packet, which is the condition under which the energy-statistics
// amplitude estimator of Katti et al. (EstimateTwoAmplitudes) is derived.
func ApplyFrequencyOffset(w Waveform, radPerSample float64) Waveform {
	out := make(Waveform, len(w))
	for i, s := range w {
		out[i] = s * Cis(radPerSample*float64(i))
	}
	return out
}

// Mix sums the waveforms sample-wise, modelling simultaneous transmissions
// arriving at the reader. All inputs must have equal length (the reader's
// signal slot-synchronises the tags, Section II-B); Mix panics otherwise.
func Mix(ws ...Waveform) Waveform {
	if len(ws) == 0 {
		return nil
	}
	out := make(Waveform, len(ws[0]))
	for _, w := range ws {
		if len(w) != len(out) {
			panic("signal: Mix of unequal-length waveforms")
		}
		for i, s := range w {
			out[i] += s
		}
	}
	return out
}

// GainScratch holds the normal-equation buffers for repeated least-squares
// gain fits, so a decoder running one fit per cancellation attempt stays
// allocation-free. The zero value is ready to use; a GainScratch must not
// be shared between goroutines.
type GainScratch struct {
	buf []complex128 // m*m matrix followed by the m-vector, one backing array
}

// solveComplex solves the small dense complex system a*x = b by Gaussian
// elimination with partial pivoting, a stored row-major n x n. It mutates a
// and b, writes the solution into x (length n), and reports false when the
// system is singular (e.g. two identical references).
func solveComplex(a, b, x []complex128, n int) bool {
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := cmplx.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return false
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[pivot*n+c] = a[pivot*n+c], a[col*n+c]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / a[col*n+col]
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < n; c++ {
			v -= a[r*n+c] * x[c]
		}
		x[r] = v / a[r*n+r]
	}
	return true
}

// EstimateTwoAmplitudes recovers the two constituent amplitudes A >= B of a
// two-signal MSK mix from the energy statistics the paper quotes from Katti
// et al. (Section II-B):
//
//	mu    = E[|y[n]|^2]                     = A^2 + B^2
//	sigma = (2/W) sum_{|y[n]|^2 > mu} |y|^2 = A^2 + B^2 + 4AB/pi
//
// It reports ok=false when the statistics are inconsistent with a two-signal
// mix (e.g. pure noise).
func EstimateTwoAmplitudes(mixed Waveform) (a, b float64, ok bool) {
	w := len(mixed)
	if w == 0 {
		return 0, 0, false
	}
	mu := mixed.Energy()
	var above float64
	for _, s := range mixed {
		re, im := real(s), imag(s)
		if p := re*re + im*im; p > mu {
			above += p
		}
	}
	sigma := 2 * above / float64(w)
	ab := (sigma - mu) * math.Pi / 4
	if ab <= 0 || mu <= 0 {
		return 0, 0, false
	}
	// A^2 and B^2 are the roots of x^2 - mu*x + (AB)^2 = 0.
	disc := mu*mu - 4*ab*ab
	if disc < 0 {
		// Near-equal amplitudes push the discriminant slightly negative
		// under noise; clamp to the equal-amplitude solution.
		disc = 0
	}
	root := math.Sqrt(disc)
	a2 := (mu + root) / 2
	b2 := (mu - root) / 2
	if b2 < 0 {
		b2 = 0
	}
	return math.Sqrt(a2), math.Sqrt(b2), true
}
