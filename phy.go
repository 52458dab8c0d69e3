package ancrfid

import (
	"github.com/ancrfid/ancrfid/internal/signal"
)

// Physical-layer re-exports for users who want to work with the MSK/ANC
// substrate directly (demodulators, collision-resolution experiments).
// Decoding, the envelope test, gain fitting, cancellation and noise copy
// their Waveforms into planes and run the signal channel's own kernels.
type (
	// Waveform is a complex-baseband sample sequence.
	Waveform = signal.Waveform
)

// SamplesPerBit is the default complex-baseband oversampling factor.
const SamplesPerBit = signal.DefaultSamplesPerBit

// ModulateID returns the canonical unit-gain MSK waveform of a tag ID.
func ModulateID(id TagID, samplesPerBit int) Waveform {
	return signal.ModulateID(id, samplesPerBit)
}

// MixWaveforms sums simultaneous transmissions sample-wise, as they
// superimpose at the reader's antenna.
func MixWaveforms(ws ...Waveform) Waveform { return signal.Mix(ws...) }

// ScaleWaveform applies a complex channel gain (attenuation + phase).
func ScaleWaveform(w Waveform, gain complex128) Waveform { return signal.Scale(w, gain) }

// AddNoise adds complex AWGN with the given per-sample standard deviation
// in place and returns the waveform.
func AddNoise(w Waveform, sigma float64, r *RNG) Waveform {
	p := plane(w)
	signal.AddNoisePlane(p, sigma, r)
	return p.Waveform(w)
}

// ApplyFrequencyOffset rotates a waveform by a per-sample phase increment,
// modelling the carrier-frequency offset of a tag's oscillator.
func ApplyFrequencyOffset(w Waveform, radPerSample float64) Waveform {
	return signal.ApplyFrequencyOffset(w, radPerSample)
}

// DecodeWaveform demodulates a 96-bit MSK waveform and reports whether the
// embedded CRC verifies.
func DecodeWaveform(w Waveform, samplesPerBit int) (TagID, bool) {
	return signal.DecodeIDPlane(plane(w), samplesPerBit)
}

// EnvelopeFlat reports whether a waveform has the constant envelope of a
// single MSK transmission; readers use it to reject capture-effect decodes
// of collided slots.
func EnvelopeFlat(w Waveform, noiseSigma float64) bool {
	return signal.EnvelopeFlatPlane(plane(w), noiseSigma)
}

// EstimateGains jointly least-squares-fits the complex gains of reference
// waveforms inside a mixed recording — the cancellation step of analog
// network coding.
func EstimateGains(mixed Waveform, refs []Waveform) []complex128 {
	var s signal.GainScratch
	return s.EstimateGainsPlane(nil, plane(mixed), planes(refs))
}

// CancelWaveforms subtracts gain-weighted references from a mixed recording
// and returns the residual.
func CancelWaveforms(mixed Waveform, refs []Waveform, gains []complex128) Waveform {
	var res signal.Plane
	signal.CancelIntoPlane(&res, plane(mixed), planes(refs), gains)
	return res.Waveform(make(Waveform, 0, len(mixed)))
}

// EstimateTwoAmplitudes recovers the two constituent amplitudes of a
// two-signal MSK mix from its energy statistics (the estimator of Katti et
// al. the paper builds on).
func EstimateTwoAmplitudes(mixed Waveform) (a, b float64, ok bool) {
	return signal.EstimateTwoAmplitudes(mixed)
}

// plane copies a waveform into a fresh plane for the signal kernels.
func plane(w Waveform) *signal.Plane {
	p := &signal.Plane{}
	p.SetWaveform(w)
	return p
}

// planes copies each waveform into a fresh plane.
func planes(ws []Waveform) []*signal.Plane {
	ps := make([]*signal.Plane, len(ws))
	for i, w := range ws {
		ps[i] = plane(w)
	}
	return ps
}
