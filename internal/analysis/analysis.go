// Package analysis implements the paper's closed-form results: the optimal
// report-probability constant omega for a given ANC capability lambda
// (Section IV-C), the expected slot-type counts behind the embedded
// estimator (Section V-C, Eqs. 7-10), the estimator's bias and variance
// (Eq. 16 and the appendix), and the classical throughput bounds the paper
// compares against.
package analysis

import "math"

// OptimalOmega returns the omega = N*p that maximises the probability that
// a slot carries 1..lambda transmitters, i.e. that the slot is useful under
// an ANC decoder able to resolve lambda-collisions.
//
// Differentiating sum_{k=1..lambda} omega^k/k! * e^-omega gives
// e^-omega * (1 - omega^lambda/lambda!), so the optimum is the closed form
// omega = (lambda!)^(1/lambda): 1.414, 1.817, 2.213 for lambda = 2, 3, 4
// (paper, Section IV-C). lambda = 1 recovers classical slotted ALOHA's
// omega = 1.
func OptimalOmega(lambda int) float64 {
	if lambda < 1 {
		lambda = 1
	}
	logFact := 0.0
	for k := 2; k <= lambda; k++ {
		logFact += math.Log(float64(k))
	}
	return math.Exp(logFact / float64(lambda))
}

// UsefulSlotProbPoisson returns P{1 <= X <= lambda} for X ~ Poisson(omega):
// the Poisson (large-N) approximation of the probability that a slot is a
// singleton or a resolvable collision (paper, Eq. 4 generalised).
func UsefulSlotProbPoisson(omega float64, lambda int) float64 {
	if omega <= 0 {
		return 0
	}
	term := omega // omega^1/1!
	sum := term
	for k := 2; k <= lambda; k++ {
		term *= omega / float64(k)
		sum += term
	}
	return sum * math.Exp(-omega)
}

// ExpectedEmpty returns E(n0), the expected number of empty slots in a
// frame of f slots when n tags each report with probability p (Eq. 7).
func ExpectedEmpty(n int, p float64, f int) float64 {
	return float64(f) * math.Pow(1-p, float64(n))
}

// ExpectedSingleton returns E(n1) (Eq. 9).
func ExpectedSingleton(n int, p float64, f int) float64 {
	return float64(f) * float64(n) * p * math.Pow(1-p, float64(n-1))
}

// ExpectedCollision returns E(nc) = f - E(n0) - E(n1) (Eq. 10).
func ExpectedCollision(n int, p float64, f int) float64 {
	return float64(f) - ExpectedEmpty(n, p, f) - ExpectedSingleton(n, p, f)
}

// EstimatorBias returns the relative bias Bias(N^/N) of the collision-count
// estimator (Eq. 16) for a population of n tags read with p = omega/n in
// frames of f slots. The value is negative (slight underestimate); Fig. 3
// plots its absolute value, which is essentially independent of n.
func EstimatorBias(n int, omega float64, f int) float64 {
	p := omega / float64(n)
	return (1 + omega - math.Exp(omega)) /
		(2 * float64(f) * float64(n) * math.Log(1-p) * (1 + omega))
}

// EstimatorVariance returns V(N^/N), the relative variance of a
// single-frame estimate (Eq. 25 with Np ~= omega): about 0.0342, 0.0287 and
// 0.0265 for omega = 1.414, 1.817 and 2.213 (f = 30). Averaging estimates
// across frames shrinks it by the frame count.
func EstimatorVariance(omega float64, f int) float64 {
	num := (1+omega)*math.Exp(omega) - (1 + 2*omega + omega*omega)
	return num / (float64(f) * math.Pow(omega, 4))
}

// AlohaBound returns 1/(e*T), the maximal reading throughput (tags/second)
// of any ALOHA protocol without collision resolution, for slot length T in
// seconds (paper, Section I).
func AlohaBound(slotSeconds float64) float64 {
	return 1 / (math.E * slotSeconds)
}

// TreeBound returns 1/(2.88*T), the maximal reading throughput of
// binary-tree splitting protocols (paper, Section VII).
func TreeBound(slotSeconds float64) float64 {
	return 1 / (2.88 * slotSeconds)
}

// ANCBound returns the collision-aware counterpart: with optimal omega each
// slot yields an ID with probability UsefulSlotProbPoisson(omega, lambda),
// so the throughput bound is that probability divided by the slot length.
func ANCBound(slotSeconds float64, lambda int) float64 {
	return UsefulSlotProbPoisson(OptimalOmega(lambda), lambda) / slotSeconds
}
