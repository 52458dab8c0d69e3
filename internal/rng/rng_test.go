package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream repeated values: %d unique of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p, c := New(7), child
	_ = p.Uint64() // consume what Split consumed
	matches := 0
	for i := 0; i < 100; i++ {
		if p.Uint64() == c.Uint64() {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("child replayed %d parent values", matches)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Errorf("digit %d count %d deviates from uniform", d, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

// binomialMoments checks empirical mean and variance of the sampler in one
// (n, p) regime against theory within z standard errors.
func binomialMoments(t *testing.T, r *Source, n int, p float64, samples int) {
	t.Helper()
	var sum, sumsq float64
	for i := 0; i < samples; i++ {
		v := float64(r.Binomial(n, p))
		if v < 0 || v > float64(n) {
			t.Fatalf("Binomial(%d,%v) out of range: %v", n, p, v)
		}
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(samples)
	variance := sumsq/float64(samples) - mean*mean
	wantMean := float64(n) * p
	wantVar := float64(n) * p * (1 - p)
	if se := math.Sqrt(wantVar / float64(samples)); math.Abs(mean-wantMean) > 6*se+1e-9 {
		t.Errorf("Binomial(%d,%v) mean %v, want %v", n, p, mean, wantMean)
	}
	if wantVar > 0 && math.Abs(variance-wantVar) > 0.1*wantVar+0.05 {
		t.Errorf("Binomial(%d,%v) variance %v, want %v", n, p, variance, wantVar)
	}
}

func TestBinomialRegimes(t *testing.T) {
	r := New(9)
	// Direct counting (n <= 16), inversion (small mean), normal approx
	// (large mean), complement flip (p > 0.5).
	binomialMoments(t, r, 10, 0.3, 20000)
	binomialMoments(t, r, 10000, 0.0001414, 20000) // protocol regime: mean ~1.4
	binomialMoments(t, r, 10000, 0.01, 20000)      // large mean: normal approx
	binomialMoments(t, r, 1000, 0.9, 20000)        // complement path
}

func TestBinomialEdges(t *testing.T) {
	r := New(10)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, .5) != 0")
	}
	if r.Binomial(100, 0) != 0 {
		t.Error("Binomial(100, 0) != 0")
	}
	if r.Binomial(100, 1) != 100 {
		t.Error("Binomial(100, 1) != 100")
	}
	if r.Binomial(-5, 0.5) != 0 {
		t.Error("Binomial(-5, .5) != 0")
	}
}

func TestSampleDistinctProperty(t *testing.T) {
	r := New(11)
	prop := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		out := r.SampleDistinct(k, n)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctFullRange(t *testing.T) {
	r := New(12)
	out := r.SampleDistinct(100, 100)
	seen := make(map[int]bool)
	for _, v := range out {
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("k=n sample not a permutation: %d unique", len(seen))
	}
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element should be selected with probability k/n.
	r := New(13)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleDistinct(2, 20) {
			counts[v]++
		}
	}
	want := float64(trials) * 2 / 20
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleDistinct(5, 3) did not panic")
		}
	}()
	New(1).SampleDistinct(5, 3)
}

func TestPerm(t *testing.T) {
	r := New(14)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(15)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

// legacySampleDistinct is the original allocating implementation (dense
// partial Fisher-Yates, sparse map-based rejection). SampleDistinctAppend
// must consume the identical generator stream and produce the identical
// output order so simulations keep their published results bit-for-bit.
func legacySampleDistinct(r *Source, k, n int) []int {
	if k == 0 {
		return nil
	}
	out := make([]int, 0, k)
	if k*8 >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return append(out, idx[:k]...)
	}
	seen := make(map[int]struct{}, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

func TestSampleDistinctAppendStreamEquivalence(t *testing.T) {
	var buf []int
	for trial := 0; trial < 500; trial++ {
		ra := New(uint64(trial))
		rb := New(uint64(trial))
		n := 1 + ra.Intn(300)
		rb.Intn(300) // keep the streams aligned
		k := ra.Intn(n + 1)
		rb.Intn(n + 1)
		want := legacySampleDistinct(ra, k, n)
		buf = rb.SampleDistinctAppend(buf[:0], k, n)
		if len(buf) != len(want) {
			t.Fatalf("trial %d (k=%d n=%d): len %d, want %d", trial, k, n, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d (k=%d n=%d): out[%d] = %d, want %d", trial, k, n, i, buf[i], want[i])
			}
		}
		// Both sources must have consumed the same number of variates.
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("trial %d (k=%d n=%d): generator streams diverged", trial, k, n)
		}
	}
}

func TestSampleDistinctAppendPreservesPrefix(t *testing.T) {
	r := New(3)
	buf := []int{7, 8, 9}
	buf = r.SampleDistinctAppend(buf, 4, 50)
	if len(buf) != 7 || buf[0] != 7 || buf[1] != 8 || buf[2] != 9 {
		t.Fatalf("prefix clobbered: %v", buf)
	}
	seen := map[int]bool{}
	for _, v := range buf[3:] {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad sample: %v", buf)
		}
		seen[v] = true
	}
}

func TestBinomialPowMemo(t *testing.T) {
	// The memoised math.Pow in binomialInversion must not change the sampled
	// stream: interleave draws over varying (n, p) and compare against a
	// fresh Source driven through a memo-less reference.
	ra, rb := New(77), New(77)
	ref := func(r *Source, n int, p float64) int {
		// Reference inversion sampler without the memo.
		q := 1 - p
		s := p / q
		pdf := math.Pow(q, float64(n))
		cdf := pdf
		u := r.Float64()
		k := 0
		for u > cdf && k < n {
			k++
			pdf *= s * float64(n-k+1) / float64(k)
			cdf += pdf
		}
		return k
	}
	cases := []struct {
		n int
		p float64
	}{{100, 0.02}, {100, 0.02}, {99, 0.02}, {100, 0.05}, {100, 0.02}, {500, 0.01}, {100, 0.02}}
	for i, c := range cases {
		got := ra.binomialInversion(c.n, c.p)
		want := ref(rb, c.n, c.p)
		if got != want {
			t.Fatalf("case %d (n=%d p=%v): got %d want %d", i, c.n, c.p, got, want)
		}
	}
}
