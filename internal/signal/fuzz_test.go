package signal

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// FuzzRoundTrip checks that modulation followed by demodulation recovers
// any ID exactly, under any channel phase rotation and gain.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint64(0), 0.0, 1.0)
	f.Add(uint16(0xFFFF), ^uint64(0), 1.5, 0.25)
	f.Add(uint16(0xA5A5), uint64(0x123456789ABCDEF0), -2.9, 3.0)
	f.Fuzz(func(t *testing.T, hi uint16, lo uint64, phase, amp float64) {
		if math.IsNaN(phase) || math.IsInf(phase, 0) || math.Abs(phase) > 1e6 {
			return
		}
		if math.IsNaN(amp) || amp < 1e-6 || amp > 1e6 {
			return
		}
		id := tagid.New(hi, lo)
		w := Scale(ModulateID(id, DefaultSamplesPerBit), cmplx.Rect(amp, phase))
		var p Plane
		p.SetWaveform(w)
		got, ok := DecodeIDPlane(&p, DefaultSamplesPerBit)
		if !ok || got != id {
			t.Fatalf("round trip failed for %v at amp %v phase %v", id, amp, phase)
		}
	})
}

// FuzzDecodeNeverPanics feeds arbitrary complex data into the decoder.
func FuzzDecodeNeverPanics(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		w := make(Waveform, len(raw))
		for i, b := range raw {
			w[i] = complex(float64(b)/32-4, float64(b^0x5A)/32-4)
		}
		// Must classify or reject, never panic.
		var p Plane
		p.SetWaveform(w)
		_, _ = DecodeIDPlane(&p, DefaultSamplesPerBit)
		_ = EnvelopeFlatPlane(&p, 0.05)
	})
}
