package analysis

import (
	"math"
	"testing"
)

func near(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", what, got, want, tol)
	}
}

// optimalOmegaNumeric cross-checks OptimalOmega by golden-section search on
// UsefulSlotProbPoisson over [0, 2*lambda+1].
func optimalOmegaNumeric(lambda int) float64 {
	lo, hi := 0.0, 2*float64(lambda)+1
	const phi = 0.6180339887498949
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := UsefulSlotProbPoisson(a, lambda), UsefulSlotProbPoisson(b, lambda)
	for hi-lo > 1e-12 {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = UsefulSlotProbPoisson(b, lambda)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = UsefulSlotProbPoisson(a, lambda)
		}
	}
	return (lo + hi) / 2
}

// usefulSlotProbBinomial returns P{1 <= X <= lambda} for X ~ Binomial(n, p):
// the exact finite-population counterpart of UsefulSlotProbPoisson
// (paper, Eq. 2).
func usefulSlotProbBinomial(n int, p float64, lambda int) float64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		if n <= lambda {
			return 1
		}
		return 0
	}
	// Walk the pmf multiplicatively to avoid large binomial coefficients.
	pdf := math.Pow(1-p, float64(n)) // P{X=0}
	ratio := p / (1 - p)
	sum := 0.0
	for k := 1; k <= lambda && k <= n; k++ {
		pdf *= ratio * float64(n-k+1) / float64(k)
		sum += pdf
	}
	return sum
}

func TestOptimalOmegaPaperValues(t *testing.T) {
	// Section IV-C: 1.414, 1.817, 2.213 for lambda = 2, 3, 4.
	near(t, OptimalOmega(2), math.Sqrt2, 1e-12, "omega(2)")
	near(t, OptimalOmega(3), math.Cbrt(6), 1e-12, "omega(3)")
	near(t, OptimalOmega(4), math.Sqrt(math.Sqrt(24)), 1e-12, "omega(4)")
	near(t, OptimalOmega(2), 1.414, 0.001, "omega(2) paper")
	near(t, OptimalOmega(3), 1.817, 0.001, "omega(3) paper")
	near(t, OptimalOmega(4), 2.213, 0.001, "omega(4) paper")
}

func TestOptimalOmegaLambdaOne(t *testing.T) {
	// lambda = 1 is classical slotted ALOHA: omega = 1 (p = 1/N).
	near(t, OptimalOmega(1), 1, 1e-12, "omega(1)")
	near(t, OptimalOmega(0), 1, 1e-12, "omega(0) clamps to lambda=1")
}

func TestOptimalOmegaMatchesNumericSearch(t *testing.T) {
	for lambda := 1; lambda <= 8; lambda++ {
		closed := OptimalOmega(lambda)
		numeric := optimalOmegaNumeric(lambda)
		near(t, closed, numeric, 1e-6, "omega closed vs numeric")
	}
}

func TestOptimalOmegaIsMaximum(t *testing.T) {
	for lambda := 2; lambda <= 5; lambda++ {
		w := OptimalOmega(lambda)
		at := UsefulSlotProbPoisson(w, lambda)
		if UsefulSlotProbPoisson(w*0.9, lambda) >= at || UsefulSlotProbPoisson(w*1.1, lambda) >= at {
			t.Errorf("omega(%d) is not a local maximum", lambda)
		}
	}
}

func TestUsefulSlotProbPoissonKnownValues(t *testing.T) {
	// lambda=1, omega=1: P(X=1) = e^-1 = 0.368 (the classic ALOHA figure).
	near(t, UsefulSlotProbPoisson(1, 1), 1/math.E, 1e-12, "P(X=1)")
	// lambda=2, omega=sqrt(2): (w + w^2/2)e^-w = 0.58694.
	near(t, UsefulSlotProbPoisson(math.Sqrt2, 2), 0.58694, 0.0001, "P useful lambda=2")
	if UsefulSlotProbPoisson(0, 2) != 0 {
		t.Error("P at omega=0 should be 0")
	}
	if UsefulSlotProbPoisson(-1, 2) != 0 {
		t.Error("P at omega<0 should be 0")
	}
}

func TestUsefulSlotProbBinomialConvergesToPoisson(t *testing.T) {
	for _, lambda := range []int{1, 2, 3, 4} {
		w := OptimalOmega(lambda)
		n := 100000
		near(t, usefulSlotProbBinomial(n, w/float64(n), lambda),
			UsefulSlotProbPoisson(w, lambda), 1e-4, "binomial vs poisson")
	}
}

func TestUsefulSlotProbBinomialEdges(t *testing.T) {
	if usefulSlotProbBinomial(0, 0.5, 2) != 0 {
		t.Error("n=0")
	}
	if usefulSlotProbBinomial(10, 0, 2) != 0 {
		t.Error("p=0")
	}
	if usefulSlotProbBinomial(2, 1, 2) != 1 {
		t.Error("p=1, n<=lambda should be certain")
	}
	if usefulSlotProbBinomial(5, 1, 2) != 0 {
		t.Error("p=1, n>lambda should be impossible")
	}
	// Exact small case: n=2, p=0.5, lambda=2: P(X=1)+P(X=2) = 0.5+0.25.
	near(t, usefulSlotProbBinomial(2, 0.5, 2), 0.75, 1e-12, "n=2 exact")
}

func TestExpectedSlotCountsSumToFrame(t *testing.T) {
	for _, n := range []int{100, 1000, 10000} {
		p := 1.414 / float64(n)
		sum := ExpectedEmpty(n, p, 30) + ExpectedSingleton(n, p, 30) + ExpectedCollision(n, p, 30)
		near(t, sum, 30, 1e-9, "E(n0)+E(n1)+E(nc)")
	}
}

func TestExpectedSlotCountsAtOptimalLoad(t *testing.T) {
	// At p = omega/N the per-slot probabilities approach the Poisson
	// fractions e^-w, w*e^-w.
	const n, f = 10000, 30
	p := math.Sqrt2 / n
	near(t, ExpectedEmpty(n, p, f)/f, math.Exp(-math.Sqrt2), 1e-4, "empty fraction")
	near(t, ExpectedSingleton(n, p, f)/f, math.Sqrt2*math.Exp(-math.Sqrt2), 1e-4, "singleton fraction")
}

func TestEstimatorBiasPaperValues(t *testing.T) {
	// Fig. 3: |bias| ~= 0.0082, 0.011, 0.014 for omega = 1.414/1.817/2.213
	// at f = 30, essentially independent of N.
	for _, tc := range []struct {
		omega float64
		want  float64
	}{
		{1.414, 0.0082}, {1.817, 0.011}, {2.213, 0.014},
	} {
		got := math.Abs(EstimatorBias(10000, tc.omega, 30))
		near(t, got, tc.want, 0.0012, "bias")
		// Independence of N (the paper's flat curves).
		near(t, math.Abs(EstimatorBias(40000, tc.omega, 30)), got, 0.0005, "bias flatness")
	}
}

func TestEstimatorVariancePaperValues(t *testing.T) {
	// Appendix: V(N^/N) ~= 0.0342, 0.0287, 0.0265 for the three omegas.
	near(t, EstimatorVariance(1.414, 30), 0.0342, 0.0005, "variance w=1.414")
	near(t, EstimatorVariance(1.817, 30), 0.0287, 0.0005, "variance w=1.817")
	near(t, EstimatorVariance(2.213, 30), 0.0265, 0.0005, "variance w=2.213")
}

func TestEstimatorVarianceShrinksWithFrameSize(t *testing.T) {
	if EstimatorVariance(1.414, 60) >= EstimatorVariance(1.414, 30) {
		t.Error("variance should shrink as the frame grows")
	}
}

func TestBounds(t *testing.T) {
	// With the paper's ~2.794 ms slot: 1/(eT) ~= 131.7, 1/(2.88T) ~= 124.3.
	const slot = 0.00279408
	near(t, AlohaBound(slot), 131.67, 0.05, "ALOHA bound")
	near(t, TreeBound(slot), 124.27, 0.05, "tree bound")
	// ANC bound for lambda=2: 0.58694/T ~= 210.1.
	near(t, ANCBound(slot, 2), 210.06, 0.2, "ANC bound")
	// Ordering: tree < ALOHA < ANC-2 < ANC-3 < ANC-4.
	if !(TreeBound(slot) < AlohaBound(slot) &&
		AlohaBound(slot) < ANCBound(slot, 2) &&
		ANCBound(slot, 2) < ANCBound(slot, 3) &&
		ANCBound(slot, 3) < ANCBound(slot, 4)) {
		t.Error("bound ordering violated")
	}
}

func TestANCBoundDiminishingReturns(t *testing.T) {
	// The paper: improvement shrinks quickly with lambda.
	const slot = 0.0028
	gain23 := ANCBound(slot, 3) - ANCBound(slot, 2)
	gain34 := ANCBound(slot, 4) - ANCBound(slot, 3)
	gain45 := ANCBound(slot, 5) - ANCBound(slot, 4)
	if !(gain23 > gain34 && gain34 > gain45) {
		t.Errorf("gains not diminishing: %v %v %v", gain23, gain34, gain45)
	}
}
