// Package estimate implements FCAT's embedded population estimator
// (paper, Section V-C): after each frame the reader counts the collision
// slots n_c and inverts E(n_c) to an estimate of the number of tags still
// participating, removing the need for a separate pre-estimation phase.
package estimate

import "math"

// ClosedForm inverts Eq. 12 of the paper:
//
//	N^ = (ln(1 - n_c/f) - ln(1 - p + omega)) / ln(1 - p) + 1
//
// where p is the frame's report probability and omega is the design
// constant the reader targeted when it chose p (omega ~= N*p once the
// estimate has locked on). ok is false when the frame carries no usable
// information: every slot collided (n_c >= f, the estimate diverges — the
// caller should grow its guess) or the inputs are degenerate.
func ClosedForm(nc, f int, p, omega float64) (est float64, ok bool) {
	if f <= 0 || p <= 0 || p >= 1 || nc < 0 {
		return 0, false
	}
	if nc >= f {
		return 0, false
	}
	est = (math.Log(1-float64(nc)/float64(f))-math.Log(1-p+omega))/math.Log(1-p) + 1
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return 0, false
	}
	if est < 0 {
		est = 0
	}
	return est, true
}

// Exact inverts E(n_c) = f*(1 - (1-p)^(N-1)*(1-p+Np)) for N by bisection,
// avoiding the omega ~= Np approximation baked into the closed form. The
// expectation is strictly increasing in N for N >= 1, so the root is
// unique.
//
// Contract (matching ClosedForm): nc == 0 is a valid observation, not a
// degenerate one — zero collisions is exactly what a population of at most
// one tag produces, so Exact(0, f, p) returns an estimate of ~1, the
// largest population whose expected collision count is zero. ok is false
// only for truly uninformative inputs: nc < 0, nc >= f (every slot
// collided; the inversion diverges and the caller should grow its guess),
// or out-of-range f/p. ClosedForm shares this contract except that its
// log-domain algebra cannot represent nc == 0 exactly when omega is large;
// both reject the same nc >= f saturation.
func Exact(nc, f int, p float64) (est float64, ok bool) {
	if f <= 0 || p <= 0 || p >= 1 || nc < 0 {
		return 0, false
	}
	if nc >= f {
		return 0, false
	}
	target := float64(nc)
	g := func(n float64) float64 {
		return float64(f)*(1-math.Pow(1-p, n-1)*(1-p+n*p)) - target
	}
	lo, hi := 0.0, 2.0
	for g(hi) < 0 {
		hi *= 2
		if hi > 1e12 {
			return 0, false
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}

// FromEmpty estimates N from the empty-slot count using Eq. 7:
// E(n0) = f*(1-p)^N, so N^ = ln(n0/f)/ln(1-p). The paper rejects this
// estimator because its variance is larger (Section V-C); it is provided for
// the ablation that verifies that claim. ok is false when n0 is 0 (the log
// diverges) or out of range.
func FromEmpty(n0, f int, p float64) (est float64, ok bool) {
	if f <= 0 || p <= 0 || p >= 1 || n0 <= 0 || n0 > f {
		return 0, false
	}
	est = math.Log(float64(n0)/float64(f)) / math.Log(1-p)
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return 0, false
	}
	return est, true
}

// Tracker maintains a weighted running mean of the per-frame estimates of
// the *total* population N* (remaining + already identified). The paper
// notes that averaging across frames shrinks the estimator variance with
// the square root of the frame count (end of Section V-C).
//
// The per-frame estimate's absolute standard deviation is proportional to
// the number of tags still participating (the relative variance of Eq. 25
// is constant), so late frames — read at higher report probability p —
// carry far tighter absolute information. Weighting each frame by p^2,
// i.e. by its inverse variance, is therefore the minimum-variance
// combination; p is fixed before the frame runs, so the weight does not
// bias the estimate.
type Tracker struct {
	sum     float64
	weights float64
	count   int
}

// Add records one per-frame estimate with unit weight.
func (t *Tracker) Add(est float64) { t.AddWeighted(est, 1) }

// AddWeighted records one per-frame estimate with the given positive
// weight (use the frame's p^2 for inverse-variance weighting).
func (t *Tracker) AddWeighted(est, weight float64) {
	if weight <= 0 {
		return
	}
	t.sum += est * weight
	t.weights += weight
	t.count++
}

// Mean returns the weighted-average estimate and whether any estimate was
// recorded.
func (t *Tracker) Mean() (float64, bool) {
	if t.count == 0 || t.weights == 0 {
		return 0, false
	}
	return t.sum / t.weights, true
}

// Count returns the number of estimates recorded.
func (t *Tracker) Count() int { return t.count }
