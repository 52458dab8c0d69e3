package signal

import (
	"fmt"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// BenchmarkEstimateGains measures the joint least-squares gain fit at the
// collision multiplicities the ANC decoder works at (lambda = 1..3), on
// the batched SoA plane kernels the signal channel's decoder uses (see
// soa.go; TestPlaneEstimateGainsBitIdentical pins them to the scalar
// path).
func BenchmarkEstimateGains(b *testing.B) {
	r := rng.New(5)
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("refs=%d", m), func(b *testing.B) {
			refs := make([]*Plane, m)
			mixed := &Plane{}
			mixed.Reset(1 + tagid.Bits*DefaultSamplesPerBit)
			for i := range refs {
				refs[i] = &Plane{}
				ModulateIDInto(refs[i], tagid.Random(r), DefaultSamplesPerBit)
				mixed.AccumulateScaled(refs[i], 1)
			}
			var s GainScratch
			var gains []complex128
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gains = s.EstimateGainsPlane(gains[:0], mixed, refs)
				if gains == nil {
					b.Fatal("singular system")
				}
			}
		})
	}
}

// BenchmarkEstimateGainsScalar keeps the legacy complex128 loop on the
// board for comparison against the plane kernel above.
func BenchmarkEstimateGainsScalar(b *testing.B) {
	r := rng.New(5)
	for _, m := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("refs=%d", m), func(b *testing.B) {
			refs := make([]Waveform, m)
			for i := range refs {
				refs[i] = ModulateID(tagid.Random(r), DefaultSamplesPerBit)
			}
			mixed := Mix(refs...)
			var s GainScratch
			var gains []complex128
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gains = s.EstimateGains(gains[:0], mixed, refs)
				if gains == nil {
					b.Fatal("singular system")
				}
			}
		})
	}
}

// BenchmarkEnvelopeFlat measures the envelope test on a clean singleton
// waveform (the common, accepting case) via the branchless plane fast
// path.
func BenchmarkEnvelopeFlat(b *testing.B) {
	r := rng.New(6)
	p := &Plane{}
	ModulateIDInto(p, tagid.Random(r), DefaultSamplesPerBit)
	w := &Plane{}
	w.Reset(p.Len())
	w.AccumulateScaled(p, complex(0.8, 0.3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !EnvelopeFlatPlane(w, 0.03) {
			b.Fatal("singleton envelope not flat")
		}
	}
}

// BenchmarkEnvelopeFlatScalar is the legacy sqrt-per-sample loop, kept for
// comparison.
func BenchmarkEnvelopeFlatScalar(b *testing.B) {
	r := rng.New(6)
	w := Scale(ModulateID(tagid.Random(r), DefaultSamplesPerBit), complex(0.8, 0.3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !EnvelopeFlat(w, 0.03) {
			b.Fatal("singleton envelope not flat")
		}
	}
}

// BenchmarkModulateIDInto measures reference synthesis on the plane path,
// one ID per iteration cycling through a 2000-tag population — the work
// the signal channel does on first sight of each tag in a run.
func BenchmarkModulateIDInto(b *testing.B) {
	ids := tagid.Population(rng.New(7), 2000)
	var p Plane
	ModulateIDInto(&p, ids[0], DefaultSamplesPerBit)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ModulateIDInto(&p, ids[i%len(ids)], DefaultSamplesPerBit)
	}
}

// BenchmarkDecodeIDPlane measures the differential demodulator plus CRC
// check on one received slot, cycling through 256 distinct noisy IDs so
// the per-bit decisions are as unpredictable as on the air.
func BenchmarkDecodeIDPlane(b *testing.B) {
	r := rng.New(13)
	planes := make([]Plane, 256)
	for i := range planes {
		ModulateIDInto(&planes[i], tagid.Random(r), DefaultSamplesPerBit)
		AddNoisePlane(&planes[i], 0.03, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DecodeIDPlane(&planes[i%len(planes)], DefaultSamplesPerBit); !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkAddNoisePlane measures the AWGN kernel on one received slot
// (a 385-sample plane at DefaultSamplesPerBit), the noise the signal
// channel adds to every observation: 770 standard-normal draws.
func BenchmarkAddNoisePlane(b *testing.B) {
	var p Plane
	ModulateIDInto(&p, tagid.New(7, 7), DefaultSamplesPerBit)
	r := rng.New(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddNoisePlane(&p, 0.03, r)
	}
}
