package signal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Bit-identity is the contract: the batched kernels must produce the exact
// bits of the scalar path (including zero signs), so the differential
// golden, chaos, and fleet suites cannot tell the two implementations
// apart. Comparisons therefore go through math.Float64bits, never through
// ==, which would hide a +0/-0 divergence.

func planeOf(w Waveform) *Plane {
	var p Plane
	p.SetWaveform(w)
	return &p
}

func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func complexBitsEq(a, b complex128) bool {
	return bitsEq(real(a), real(b)) && bitsEq(imag(a), imag(b))
}

func requirePlaneBits(t *testing.T, what string, w Waveform, p *Plane) {
	t.Helper()
	if len(w) != p.Len() {
		t.Fatalf("%s: length %d vs plane %d", what, len(w), p.Len())
	}
	for i := range w {
		if !bitsEq(real(w[i]), p.Re[i]) || !bitsEq(imag(w[i]), p.Im[i]) {
			t.Fatalf("%s: sample %d = (%x,%x), plane (%x,%x)", what, i,
				math.Float64bits(real(w[i])), math.Float64bits(imag(w[i])),
				math.Float64bits(p.Re[i]), math.Float64bits(p.Im[i]))
		}
	}
}

func TestPlaneModulateBitIdentical(t *testing.T) {
	r := rng.New(41)
	var p Plane
	for _, factor := range []int{1, 2, 4, 8} {
		for i := 0; i < 10; i++ {
			id := tagid.Random(r)
			ModulateIDInto(&p, id, factor)
			requirePlaneBits(t, "modulate", ModulateID(id, factor), &p)
		}
	}
}

func TestPlaneDecodeBitIdentical(t *testing.T) {
	r := rng.New(42)
	for i := 0; i < 30; i++ {
		id := tagid.Random(r)
		w := ModulateID(id, spb)
		if i%2 == 0 {
			w = Scale(w, cmplx.Rect(0.2+r.Float64(), 2*math.Pi*r.Float64()))
		}
		if i%3 == 0 {
			w = AddNoise(w, 0.2, r)
		}
		wantID, wantOK := DecodeID(w, spb)
		gotID, gotOK := DecodeIDPlane(planeOf(w), spb)
		if wantID != gotID || wantOK != gotOK {
			t.Fatalf("decode (%v,%v), scalar (%v,%v)", gotID, gotOK, wantID, wantOK)
		}
	}
	if _, ok := DecodeIDPlane(planeOf(make(Waveform, 17)), spb); ok {
		t.Fatal("plane decode accepted a wrong-length waveform")
	}
}

func TestPlaneEnvelopeMatchesScalar(t *testing.T) {
	r := rng.New(43)
	const sigma = 0.03
	cases := []Waveform{
		nil,
		Scale(ModulateID(tagid.Random(r), spb), complex(0.8, 0.3)),
		AddNoise(Scale(ModulateID(tagid.Random(r), spb), cmplx.Rect(0.8, 1.0)), sigma, r),
		AddNoise(Mix(
			Scale(ModulateID(tagid.Random(r), spb), cmplx.Rect(0.9, 0.3)),
			Scale(ModulateID(tagid.Random(r), spb), cmplx.Rect(0.5, 2.1)),
		), sigma, r),
		// Near-threshold: envelope variance right around the decision line,
		// where the fast-path bound must hand off to the exact fallback.
		AddNoise(Scale(ModulateID(tagid.Random(r), spb), complex(0.1, 0)), sigma, r),
		make(Waveform, 64), // all-zero recording: q == 0 guard
	}
	for i := 0; i < 40; i++ {
		a := Scale(ModulateID(tagid.Random(r), spb), cmplx.Rect(0.3+r.Float64(), 2*math.Pi*r.Float64()))
		if i%2 == 1 {
			a = Mix(a, Scale(ModulateID(tagid.Random(r), spb), cmplx.Rect(r.Float64(), 2*math.Pi*r.Float64())))
		}
		cases = append(cases, AddNoise(a, sigma*r.Float64()*2, r))
	}
	for i, w := range cases {
		want := EnvelopeFlat(w, sigma)
		got := EnvelopeFlatPlane(planeOf(w), sigma)
		if want != got {
			t.Fatalf("case %d: plane envelope %v, scalar %v", i, got, want)
		}
	}
}

func randomRefs(r *rng.Source, m int) ([]Waveform, []*Plane) {
	refs := make([]Waveform, m)
	planes := make([]*Plane, m)
	for i := range refs {
		refs[i] = ModulateID(tagid.Random(r), spb)
		planes[i] = planeOf(refs[i])
	}
	return refs, planes
}

func TestPlaneEstimateGainsBitIdentical(t *testing.T) {
	r := rng.New(44)
	var sw, sp GainScratch
	for _, m := range []int{1, 2, 3} {
		for i := 0; i < 10; i++ {
			refs, planes := randomRefs(r, m)
			parts := make([]Waveform, m)
			for k := range parts {
				parts[k] = Scale(refs[k], cmplx.Rect(0.3+r.Float64(), 2*math.Pi*r.Float64()))
			}
			mixed := AddNoise(Mix(parts...), 0.03, r)
			want := sw.EstimateGains(nil, mixed, refs)
			got := sp.EstimateGainsPlane(nil, planeOf(mixed), planes)
			if (want == nil) != (got == nil) || len(want) != len(got) {
				t.Fatalf("m=%d: gains %v vs scalar %v", m, got, want)
			}
			for k := range want {
				if !complexBitsEq(want[k], got[k]) {
					t.Fatalf("m=%d gain %d: %v vs scalar %v", m, k, got[k], want[k])
				}
			}
			// Residual cancellation must match bit-for-bit too.
			res := CancelInto(nil, mixed, refs, want)
			var dst Plane
			CancelIntoPlane(&dst, planeOf(mixed), planes, got)
			requirePlaneBits(t, "cancel", res, &dst)
		}
	}
}

func TestPlaneEstimateGainsSingular(t *testing.T) {
	// Duplicate references: the Gram matrix is singular, and its off-diagonal
	// imaginary parts are exactly zero — the Hermitian-mirror corner case.
	ref := ModulateID(tagid.New(1, 1), spb)
	var s GainScratch
	got := s.EstimateGainsPlane(nil, planeOf(ref.Clone()), []*Plane{planeOf(ref), planeOf(ref)})
	if got != nil {
		t.Fatalf("singular system should return nil, got %v", got)
	}
}

func TestPlaneAccumulateScaledBitIdentical(t *testing.T) {
	r := rng.New(45)
	for i := 0; i < 20; i++ {
		ref := ModulateID(tagid.Random(r), spb)
		g := cmplx.Rect(0.3+r.Float64(), 2*math.Pi*r.Float64())
		rx := make(Waveform, len(ref))
		for n := range rx {
			rx[n] = complex(r.NormFloat64(), r.NormFloat64())
		}
		var p Plane
		p.SetWaveform(rx)
		for n := range rx {
			rx[n] += ref[n] * g
		}
		p.AccumulateScaled(planeOf(ref), g)
		requirePlaneBits(t, "accumulate", rx, &p)
	}
}

// awgnStreamSHA256 is the SHA-256 of the first 10⁵ rng.New(1)
// ZigNormFloat64 deviates, each hashed as its big-endian float64 bits.
const awgnStreamSHA256 = "0dd44a3a60d5c9844327a19ecab084e7545c93d3b15ace53a83e4ec047db4e50"

// TestAddNoiseStreamPinned pins the one noise definition. The sampler's
// stream must hash to awgnStreamSHA256, and AddNoise and AddNoisePlane
// over a zero signal at sigma √2 (unit variance per component) must
// reproduce those exact deviates, I then Q per sample. A sampler change
// fails here by name instead of silently moving the signal goldens.
func TestAddNoiseStreamPinned(t *testing.T) {
	const n = 100_000
	digest := func(next func() float64) string {
		h := sha256.New()
		var b [8]byte
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(next()))
			h.Write(b[:])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	interleaved := func(re, im []float64) func() float64 {
		k := 0
		return func() float64 {
			v := re[k/2]
			if k%2 == 1 {
				v = im[k/2]
			}
			k++
			return v
		}
	}
	w := AddNoise(make(Waveform, n/2), math.Sqrt2, rng.New(1))
	re, im := make([]float64, len(w)), make([]float64, len(w))
	for i, c := range w {
		re[i], im[i] = real(c), imag(c)
	}
	var p Plane
	p.Reset(n / 2)
	AddNoisePlane(&p, math.Sqrt2, rng.New(1))
	for _, path := range []struct {
		name string
		next func() float64
	}{
		{"ZigNormFloat64", rng.New(1).ZigNormFloat64},
		{"AddNoise", interleaved(re, im)},
		{"AddNoisePlane", interleaved(p.Re, p.Im)},
	} {
		if got := digest(path.next); got != awgnStreamSHA256 {
			t.Errorf("%s stream SHA-256 %s, want %s", path.name, got, awgnStreamSHA256)
		}
	}
}

func TestPlaneWaveformRoundTrip(t *testing.T) {
	w := AddNoise(ModulateID(tagid.New(2, 3), spb), 0.1, rng.New(50))
	p := planeOf(w)
	back := p.Waveform(nil)
	requirePlaneBits(t, "round-trip", back, p)
	if len(back) != len(w) {
		t.Fatal("round-trip length mismatch")
	}
}

// FuzzBatchedSignalEquivalence synthesizes a random collision (1-3 tags,
// random gains, noise) with both the scalar waveform oracle and the plane
// kernels the channel runs, then requires every kernel decision and every
// produced sample to agree bit-for-bit.
func FuzzBatchedSignalEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(1))
	f.Add(uint64(2), uint8(2))
	f.Add(uint64(3), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw uint8) {
		m := 1 + int(mRaw)%3
		r := rng.New(seed)
		rp := rng.New(seed) // plane path replays the same draw sequence

		// Scalar synthesis, mirroring channel.Signal.Observe.
		refs := make([]Waveform, m)
		rx := make(Waveform, 1+tagid.Bits*spb)
		for i := 0; i < m; i++ {
			refs[i] = ModulateID(tagid.Random(r), spb)
			g := cmplx.Rect(0.3+0.7*r.Float64(), 2*math.Pi*r.Float64())
			for n := range rx {
				rx[n] += refs[i][n] * g
			}
		}
		rx = AddNoise(rx, 0.03, r)

		// Batched synthesis over planes, identical draw order. The same sum
		// is also accumulated through compact Refs, as the channel does.
		planes := make([]*Plane, m)
		var prx, refRx Plane
		prx.Reset(1 + tagid.Bits*spb)
		refRx.Reset(prx.Len())
		for i := 0; i < m; i++ {
			id := tagid.Random(rp)
			planes[i] = &Plane{}
			ModulateIDInto(planes[i], id, spb)
			g := cmplx.Rect(0.3+0.7*rp.Float64(), 2*math.Pi*rp.Float64())
			prx.AccumulateScaled(planes[i], g)
			refRx.AccumulateScaledRef(ModulateIDRef(id, spb), g)
		}
		requirePlaneBits(t, "ref synthesis", prx.Waveform(nil), &refRx)
		AddNoisePlane(&prx, 0.03, rp)
		requirePlaneBits(t, "synthesis", rx, &prx)

		// Decode + envelope decisions.
		wantID, wantOK := DecodeID(rx, spb)
		gotID, gotOK := DecodeIDPlane(&prx, spb)
		if wantID != gotID || wantOK != gotOK {
			t.Fatalf("decode (%v,%v), scalar (%v,%v)", gotID, gotOK, wantID, wantOK)
		}
		if w, g := EnvelopeFlat(rx, 0.03), EnvelopeFlatPlane(&prx, 0.03); w != g {
			t.Fatalf("envelope %v, scalar %v", g, w)
		}

		// Joint gain fit + cancellation.
		var sw, sp GainScratch
		wantGains := sw.EstimateGains(nil, rx, refs)
		gotGains := sp.EstimateGainsPlane(nil, &prx, planes)
		if (wantGains == nil) != (gotGains == nil) {
			t.Fatalf("gain fit nil mismatch: %v vs %v", gotGains, wantGains)
		}
		for k := range wantGains {
			if !complexBitsEq(wantGains[k], gotGains[k]) {
				t.Fatalf("gain %d: %v vs scalar %v", k, gotGains[k], wantGains[k])
			}
		}
		if wantGains != nil {
			res := CancelInto(nil, rx, refs, wantGains)
			var dst Plane
			CancelIntoPlane(&dst, &prx, planes, gotGains)
			requirePlaneBits(t, "cancel", res, &dst)
		}
	})
}

// TestPlaneKernelsZeroAlloc pins the steady-state plane kernels at zero
// allocations once their buffers are warm.
func TestPlaneKernelsZeroAlloc(t *testing.T) {
	r := rng.New(60)
	refs, planes := randomRefs(r, 2)
	parts := make([]Waveform, 2)
	for k := range parts {
		parts[k] = Scale(refs[k], cmplx.Rect(0.5+0.5*r.Float64(), 2*math.Pi*r.Float64()))
	}
	mixed := planeOf(AddNoise(Mix(parts...), 0.03, r))
	var s GainScratch
	var gains []complex128
	var dst, expanded Plane
	ref := ModulateIDRef(tagid.New(3, 4), spb)
	ref.Expand(&expanded)
	allocs := testing.AllocsPerRun(100, func() {
		ref.Expand(&expanded)
		dst.AccumulateScaledRef(ref, 0.5)
		gains = s.EstimateGainsPlane(gains[:0], mixed, planes)
		if gains == nil {
			t.Fatal("singular system")
		}
		CancelIntoPlane(&dst, mixed, planes, gains)
		if !EnvelopeFlatPlane(mixed, 0.5) {
			t.Fatal("envelope")
		}
		DecodeIDPlane(mixed, spb)
	})
	if allocs != 0 {
		t.Fatalf("warm plane kernels allocate %v times, want 0", allocs)
	}
}
