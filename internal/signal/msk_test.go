package signal

import (
	"math"
	"math/cmplx"
	"strings"
	"sync"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// modulateOracle is the direct MSK loop the phase-state table replaced:
// accumulate the phase sample by sample and evaluate cmplx.Exp on it. It
// is kept here, independent of the table, as the reference the table walk
// must reproduce bit for bit.
func modulateOracle(data []byte, nbits, spb int) Waveform {
	w := make(Waveform, 1+nbits*spb)
	phase := 0.0
	w[0] = complex(1, 0)
	n := 1
	for i := 0; i < nbits; i++ {
		step := phaseStepPerBit / float64(spb)
		if data[i/8]>>(7-i%8)&1 == 0 {
			step = -step
		}
		for s := 0; s < spb; s++ {
			phase += step
			w[n] = cmplx.Exp(complex(0, phase))
			n++
		}
	}
	return w
}

func requireWaveBits(t *testing.T, what string, want, got Waveform) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !complexBitsEq(want[i], got[i]) {
			t.Fatalf("%s: sample %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestCisMatchesCmplxExp(t *testing.T) {
	for _, theta := range []float64{
		0, math.Copysign(0, -1), 1e-300, -1e-300, math.Pi / 8, -math.Pi / 2,
		3, -150.79644737231007, 1e6, -1e18, math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
	} {
		want := cmplx.Exp(complex(0, theta))
		if got := Cis(theta); !complexBitsEq(want, got) {
			t.Fatalf("Cis(%v) = %v, cmplx.Exp gives %v", theta, got, want)
		}
	}
	if got := Cis(math.NaN()); !math.IsNaN(real(got)) || !math.IsNaN(imag(got)) {
		t.Fatalf("Cis(NaN) = %v, want NaN parts", got)
	}
}

// TestModulateMatchesOracle pins both modulation entry points to the
// direct cmplx.Exp loop over random 96-bit IDs.
func TestModulateMatchesOracle(t *testing.T) {
	r := rng.New(70)
	var p Plane
	for _, factor := range []int{1, 2, 3, 4, 8, 16} {
		for i := 0; i < 2000; i++ {
			id := tagid.Random(r)
			want := modulateOracle(id.Bytes(), tagid.Bits, factor)
			ModulateIDInto(&p, id, factor)
			requirePlaneBits(t, "plane", want, &p)
			if i%8 == 0 {
				requireWaveBits(t, "scalar", want, ModulateID(id, factor))
			}
		}
	}
}

// TestModulateArbitraryLengthMatchesOracle covers message lengths other
// than an ID, in both growing and shrinking order, so the table is walked
// short of, exactly at and beyond the depth it was first built for.
func TestModulateArbitraryLengthMatchesOracle(t *testing.T) {
	r := rng.New(71)
	lengths := []int{0, 1, 7, 8, 9, 95, 96, 97, 200, 333, 513, 150, 3, 64}
	var p Plane
	for _, factor := range []int{1, 2, 3, 4, 8, 16} {
		for _, nbits := range lengths {
			for rep := 0; rep < 4; rep++ {
				data := make([]byte, (nbits+7)/8)
				for i := range data {
					data[i] = byte(r.Uint64())
				}
				want := modulateOracle(data, nbits, factor)
				ModulateInto(&p, data, nbits, factor)
				requirePlaneBits(t, "plane", want, &p)
				requireWaveBits(t, "scalar", want, Modulate(data, nbits, factor))
			}
		}
	}
	// Constant messages reach the extremes of the phase range.
	for _, fill := range []byte{0x00, 0xFF} {
		data := make([]byte, 80)
		for i := range data {
			data[i] = fill
		}
		want := modulateOracle(data, 640, 4)
		ModulateInto(&p, data, 640, 4)
		requirePlaneBits(t, "constant", want, &p)
	}
}

// TestMSKTableSizes pins the number of phase states 96-bit IDs reach per
// samples-per-bit value (quoted in docs/performance.md).
func TestMSKTableSizes(t *testing.T) {
	var reg mskRegistry
	for factor, want := range map[int]int{1: 265, 2: 681, 4: 1455, 8: 3037, 16: 7181, 32: 14935} {
		if got := len(reg.table(factor, tagid.Bits).re); got != want {
			t.Errorf("spb=%d: %d states, want %d", factor, got, want)
		}
	}
}

// TestRefExpandMatchesModulate pins the compact reference to the plane
// modulator bit for bit: expanding a Ref, and accumulating through it,
// must give exactly the samples ModulateIDInto writes.
func TestRefExpandMatchesModulate(t *testing.T) {
	r := rng.New(72)
	var want, got, acc Plane
	for _, factor := range []int{1, 2, 4, 8, 16} {
		for i := 0; i < 500; i++ {
			id := tagid.Random(r)
			ModulateIDInto(&want, id, factor)
			ref := ModulateIDRef(id, factor)
			ref.Expand(&got)
			requirePlaneBits(t, "expand", want.Waveform(nil), &got)
			acc.Reset(want.Len())
			acc.AccumulateScaledRef(ref, 1)
			requirePlaneBits(t, "accumulate", want.Waveform(nil), &acc)
		}
	}
}

// TestModulateIDRefStateOverflow: a table with more states than a uint16
// indexes (82 051 at spb 128) must stop ModulateIDRef loudly, naming the
// spb, instead of wrapping indices into a wrong waveform.
func TestModulateIDRefStateOverflow(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "spb 128") {
			t.Fatalf("ModulateIDRef at spb 128: recovered %q, want a panic naming spb 128", msg)
		}
	}()
	ModulateIDRef(tagid.New(1, 2), 128)
}

// TestMSKTableConcurrentBuild modulates from several goroutines against a
// fresh registry, so the first build and later growth of one table race
// with readers. Run under -race it checks the publication protocol; every
// waveform must still match the oracle.
func TestMSKTableConcurrentBuild(t *testing.T) {
	var reg mskRegistry
	const factor = 5
	lengths := []int{tagid.Bits, 17, 240, tagid.Bits, 400, 1}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, len(lengths))
	for g, nbits := range lengths {
		wg.Add(1)
		go func(seed uint64, nbits int) {
			defer wg.Done()
			r := rng.New(seed)
			var p Plane
			<-start
			for rep := 0; rep < 20; rep++ {
				data := make([]byte, (nbits+7)/8)
				for i := range data {
					data[i] = byte(r.Uint64())
				}
				want := modulateOracle(data, nbits, factor)
				reg.modulateInto(&p, data, nbits, factor)
				for i := range want {
					if !bitsEq(real(want[i]), p.Re[i]) || !bitsEq(imag(want[i]), p.Im[i]) {
						errs <- "concurrent modulation diverged from the oracle"
						return
					}
				}
			}
		}(uint64(80+g), nbits)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := reg.table(factor, 0).bits; got != 400 {
		t.Fatalf("table covers %d bits, want 400", got)
	}
}

// FuzzModulateTable checks table-driven modulation of arbitrary messages
// against the direct cmplx.Exp loop.
func FuzzModulateTable(f *testing.F) {
	f.Add([]byte{0xA5, 0x3C}, uint16(16), uint8(3))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(29), uint8(15))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nbits uint16, spbRaw uint8) {
		// Bound the table a single input can grow: at most 512 bits at
		// 1..16 samples per bit.
		if len(data) > 64 {
			data = data[:64]
		}
		n := int(nbits) % (len(data)*8 + 1)
		factor := 1 + int(spbRaw)%16
		want := modulateOracle(data, n, factor)
		var p Plane
		ModulateInto(&p, data, n, factor)
		requirePlaneBits(t, "plane", want, &p)
		requireWaveBits(t, "scalar", want, Modulate(data, n, factor))
	})
}
