package estimate

import (
	"math"
	"testing"

	"github.com/ancrfid/ancrfid/internal/analysis"
	"github.com/ancrfid/ancrfid/internal/rng"
)

func TestClosedFormAtExpectation(t *testing.T) {
	// Feeding the closed form the exact expectation E(n_c) at the design
	// load (p = omega/N) must return approximately N.
	for _, n := range []int{1000, 5000, 20000} {
		omega := 1.414
		p := omega / float64(n)
		f := 30
		enc := analysis.ExpectedCollision(n, p, f)
		est, ok := ClosedForm(int(math.Round(enc)), f, p, omega)
		if !ok {
			t.Fatalf("ClosedForm rejected valid inputs at N=%d", n)
		}
		if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.08 {
			t.Errorf("N=%d: closed-form estimate %v (rel err %.3f)", n, est, rel)
		}
	}
}

func TestClosedFormDegenerateInputs(t *testing.T) {
	if _, ok := ClosedForm(30, 30, 0.001, 1.414); ok {
		t.Error("saturated frame (nc=f) should not estimate")
	}
	if _, ok := ClosedForm(31, 30, 0.001, 1.414); ok {
		t.Error("nc>f should not estimate")
	}
	if _, ok := ClosedForm(-1, 30, 0.001, 1.414); ok {
		t.Error("negative nc should not estimate")
	}
	if _, ok := ClosedForm(5, 0, 0.001, 1.414); ok {
		t.Error("f=0 should not estimate")
	}
	if _, ok := ClosedForm(5, 30, 0, 1.414); ok {
		t.Error("p=0 should not estimate")
	}
	if _, ok := ClosedForm(5, 30, 1, 1.414); ok {
		t.Error("p=1 should not estimate")
	}
}

func TestExactInvertsExpectation(t *testing.T) {
	// Exact is the self-consistent inversion of Eq. 10: at any (N, p) with
	// informative E(n_c), inverting the exact expectation recovers N.
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1000, 1.414 / 1000}, {1000, 0.005}, {10000, 0.0002},
		{50, 0.05}, {200, 0.002},
	} {
		f := 30
		enc := analysis.ExpectedCollision(tc.n, tc.p, f)
		if enc < 1 || enc > float64(f)-1 {
			continue // uninformative regime
		}
		est, ok := Exact(int(math.Round(enc)), f, tc.p)
		if !ok {
			t.Fatalf("Exact rejected valid inputs at N=%d p=%v", tc.n, tc.p)
		}
		// Rounding E(nc) to an integer count limits precision.
		if rel := math.Abs(est-float64(tc.n)) / float64(tc.n); rel > 0.15 {
			t.Errorf("N=%d p=%v: exact estimate %v (rel err %.3f)", tc.n, tc.p, est, rel)
		}
	}
}

func TestExactDegenerateInputs(t *testing.T) {
	if _, ok := Exact(30, 30, 0.001); ok {
		t.Error("saturated frame should not estimate")
	}
	if _, ok := Exact(-1, 30, 0.001); ok {
		t.Error("negative nc should not estimate")
	}
}

// TestExactZeroCollisions pins the nc == 0 contract shared with
// ClosedForm: zero observed collisions is a valid observation meaning "at
// most ~1 tag", not a degenerate input.
func TestExactZeroCollisions(t *testing.T) {
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9} {
		est, ok := Exact(0, 30, p)
		if !ok {
			t.Fatalf("Exact(0, 30, %v) not ok; nc=0 is a valid observation", p)
		}
		if est < 0 || est > 1.5 {
			t.Fatalf("Exact(0, 30, %v) = %v, want a zero-ish estimate in [0, 1.5]", p, est)
		}
	}
}

func TestExactMonotoneInCollisions(t *testing.T) {
	prev := 0.0
	for nc := 1; nc < 30; nc++ {
		est, ok := Exact(nc, 30, 0.001)
		if !ok {
			t.Fatalf("Exact failed at nc=%d", nc)
		}
		if est <= prev {
			t.Fatalf("estimate not increasing at nc=%d: %v <= %v", nc, est, prev)
		}
		prev = est
	}
}

func TestFromEmptyInvertsExpectation(t *testing.T) {
	for _, n := range []int{500, 5000} {
		p := 1.414 / float64(n)
		f := 30
		en0 := analysis.ExpectedEmpty(n, p, f)
		est, ok := FromEmpty(int(math.Round(en0)), f, p)
		if !ok {
			t.Fatalf("FromEmpty rejected valid inputs at N=%d", n)
		}
		if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.15 {
			t.Errorf("N=%d: empty-based estimate %v (rel err %.3f)", n, est, rel)
		}
	}
}

func TestFromEmptyDegenerate(t *testing.T) {
	if _, ok := FromEmpty(0, 30, 0.01); ok {
		t.Error("n0=0 should not estimate (log diverges)")
	}
	if _, ok := FromEmpty(31, 30, 0.01); ok {
		t.Error("n0>f should not estimate")
	}
}

// simulateFrames returns per-frame estimates from simulated frames at the
// design load, using the given estimator kind.
func simulateFrames(r *rng.Source, n, f, frames int, omega float64, fromEmpty bool) []float64 {
	p := omega / float64(n)
	var out []float64
	for i := 0; i < frames; i++ {
		nc, n0 := 0, 0
		for s := 0; s < f; s++ {
			switch k := r.Binomial(n, p); {
			case k == 0:
				n0++
			case k >= 2:
				nc++
			}
		}
		var est float64
		var ok bool
		if fromEmpty {
			est, ok = FromEmpty(n0, f, p)
		} else {
			est, ok = Exact(nc, f, p)
		}
		if ok {
			out = append(out, est/float64(n))
		}
	}
	return out
}

func TestMonteCarloAccuracy(t *testing.T) {
	// The mean of per-frame exact estimates should track N within a few
	// percent, and the empirical variance should match Eq. 25.
	r := rng.New(42)
	rel := simulateFrames(r, 10000, 30, 4000, 1.414, false)
	var sum, sumsq float64
	for _, v := range rel {
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(len(rel))
	variance := sumsq/float64(len(rel)) - mean*mean
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("mean relative estimate %v, want ~1", mean)
	}
	want := analysis.EstimatorVariance(1.414, 30)
	if math.Abs(variance-want) > 0.35*want {
		t.Errorf("empirical variance %v, want ~%v (Eq. 25)", variance, want)
	}
}

func TestEmptyEstimatorHasHigherVariance(t *testing.T) {
	// The paper rejects the empty-slot estimator because its variance is
	// larger (Section V-C); verify that claim empirically.
	r := rng.New(43)
	varOf := func(fromEmpty bool) float64 {
		rel := simulateFrames(r, 10000, 30, 3000, 1.414, fromEmpty)
		var sum, sumsq float64
		for _, v := range rel {
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(len(rel))
		return sumsq/float64(len(rel)) - mean*mean
	}
	collisionVar := varOf(false)
	emptyVar := varOf(true)
	if emptyVar <= collisionVar {
		t.Errorf("empty-based variance %v should exceed collision-based %v", emptyVar, collisionVar)
	}
}

func TestTracker(t *testing.T) {
	var tr Tracker
	if _, ok := tr.Mean(); ok {
		t.Fatal("empty tracker reported a mean")
	}
	tr.Add(10)
	tr.Add(20)
	if m, ok := tr.Mean(); !ok || m != 15 {
		t.Fatalf("Mean = %v, %v", m, ok)
	}
	if tr.Count() != 2 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestTrackerWeighted(t *testing.T) {
	var tr Tracker
	tr.AddWeighted(10, 1)
	tr.AddWeighted(40, 3)
	if m, _ := tr.Mean(); m != 32.5 {
		t.Fatalf("weighted mean = %v, want 32.5", m)
	}
	tr.AddWeighted(100, 0)  // ignored
	tr.AddWeighted(100, -1) // ignored
	if m, _ := tr.Mean(); m != 32.5 {
		t.Fatalf("non-positive weights changed the mean: %v", m)
	}
}
