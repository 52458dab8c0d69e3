package prestep

import (
	"math"
	"testing"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// estimateVariance returns the relative variance Var(N^/N) of a single
// zero-estimator probe frame of f slots at per-slot occupancy rho = p/f
// for a population of n tags. By the delta method on
// N^ = ln(n0/f)/ln(1-rho) with Var(n0) = f*q*(1-q), q = (1-rho)^n:
//
//	Var(N^) = (1-q) / (f * q * ln^2(1-rho))
//
// Averaging T frames divides the variance by T — the knob behind
// Kodialam & Nandagopal's "estimate to an arbitrary accuracy".
func estimateVariance(n int, f int, p float64) float64 {
	rho := p / float64(f)
	if rho <= 0 || rho >= 1 || n <= 0 || f <= 0 {
		return math.Inf(1)
	}
	q := math.Pow(1-rho, float64(n))
	if q <= 0 || q >= 1 {
		return math.Inf(1)
	}
	l := math.Log(1 - rho)
	return (1 - q) / (float64(f) * q * l * l) / (float64(n) * float64(n))
}

// planFrames returns the number of measurement frames needed so that the
// averaged zero estimator's relative standard error drops below relErr for
// a population around n (read at the locked-on persistence p).
func planFrames(n int, cfg Config, p, relErr float64) int {
	cfg = cfg.withDefaults()
	if relErr <= 0 {
		return cfg.Frames
	}
	v := estimateVariance(n, cfg.FrameSize, p)
	if math.IsInf(v, 1) {
		return cfg.Frames
	}
	frames := int(math.Ceil(v / (relErr * relErr)))
	if frames < 1 {
		frames = 1
	}
	return frames
}

func env(seed uint64, tags int) *protocol.Env {
	r := rng.New(seed)
	return &protocol.Env{
		RNG:     r,
		Tags:    tagid.Population(r, tags),
		Channel: channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r),
		Timing:  air.ICode(),
	}
}

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 50000} {
		res, err := Estimate(env(uint64(n), n), Config{})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if rel := math.Abs(res.Estimate-float64(n)) / float64(n); rel > 0.25 {
			t.Errorf("N=%d: estimate %.0f (rel err %.2f)", n, res.Estimate, rel)
		}
		if res.Slots <= 0 || res.OnAir <= 0 {
			t.Errorf("N=%d: no probe cost recorded", n)
		}
	}
}

func TestEstimateCollisionMethod(t *testing.T) {
	res, err := Estimate(env(1, 5000), Config{Method: MethodCollision, Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Estimate-5000) / 5000; rel > 0.3 {
		t.Errorf("collision-method estimate %.0f (rel err %.2f)", res.Estimate, rel)
	}
}

func TestEstimateEmptyField(t *testing.T) {
	res, err := Estimate(env(2, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != 0 {
		t.Fatalf("empty field estimated as %.1f", res.Estimate)
	}
}

func TestEstimateTinyPopulation(t *testing.T) {
	res, err := Estimate(env(3, 3), Config{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate < 0 || res.Estimate > 12 {
		t.Fatalf("N=3 estimated as %.1f", res.Estimate)
	}
}

func TestProbeCostGrowsLogarithmically(t *testing.T) {
	// The persistence search halves p per saturated frame, so the probe
	// frame count grows ~log2(N/f), not with N.
	small, err := Estimate(env(4, 500), Config{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Estimate(env(4, 50000), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Frames > small.Frames+12 {
		t.Fatalf("probe frames grew too fast: %d -> %d", small.Frames, big.Frames)
	}
}

func TestSlotsBreakdownConsistent(t *testing.T) {
	res, err := Estimate(env(5, 2000), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EmptySlots+res.SingletonSlots+res.CollisionSlots != res.Slots {
		t.Fatalf("slot breakdown inconsistent: %+v", res)
	}
}

func TestMethodString(t *testing.T) {
	if MethodZero.String() != "zero" || MethodCollision.String() != "collision" {
		t.Fatal("method names wrong")
	}
}

func TestInvertZeroRoundTrip(t *testing.T) {
	// Feed the exact expectation; the inversion must return N.
	const f = 64
	for _, n := range []int{50, 500, 5000} {
		rho := 1.0 / float64(n) // informative regime
		en0 := float64(f) * math.Pow(1-rho, float64(n))
		est, ok := invertZero(int(math.Round(en0)), f, rho)
		if !ok {
			t.Fatalf("invertZero rejected valid inputs at N=%d", n)
		}
		if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.25 {
			t.Errorf("N=%d: inverted %v", n, est)
		}
	}
}

func TestInvertCollisionRoundTrip(t *testing.T) {
	const f = 64
	n := 2000
	rho := 1.0 / 1500.0
	enc := float64(f) * (1 - math.Pow(1-rho, float64(n)) - float64(n)*rho*math.Pow(1-rho, float64(n-1)))
	est, ok := invertCollision(int(math.Round(enc)), f, rho)
	if !ok {
		t.Fatal("invertCollision rejected valid inputs")
	}
	if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.3 {
		t.Errorf("inverted %v, want ~%d", est, n)
	}
}

func TestInvertDegenerate(t *testing.T) {
	if _, ok := invertZero(0, 64, 0.01); ok {
		t.Error("n0=0 should not invert")
	}
	if _, ok := invertZero(10, 64, 0); ok {
		t.Error("rho=0 should not invert")
	}
	if _, ok := invertCollision(0, 64, 0.01); ok {
		t.Error("nc=0 should not invert")
	}
	if _, ok := invertCollision(64, 64, 0.01); ok {
		t.Error("nc=f should not invert")
	}
}

func TestEstimateVarianceMatchesMonteCarlo(t *testing.T) {
	// The delta-method variance must match the empirical per-frame spread.
	const (
		n = 5000
		f = 64
	)
	p := float64(f) / float64(n) // rho = 1/n: the informative regime
	want := estimateVariance(n, f, p)

	r := rng.New(9)
	rho := p / float64(f)
	var rel []float64
	for i := 0; i < 3000; i++ {
		n0 := 0
		for s := 0; s < f; s++ {
			if r.Binomial(n, rho) == 0 {
				n0++
			}
		}
		if est, ok := invertZero(n0, f, rho); ok {
			rel = append(rel, est/float64(n))
		}
	}
	var sum, sumsq float64
	for _, v := range rel {
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(len(rel))
	got := sumsq/float64(len(rel)) - mean*mean
	if got < want*0.6 || got > want*1.6 {
		t.Fatalf("empirical relative variance %v vs analytic %v", got, want)
	}
}

func TestPlanFramesShrinksWithTolerance(t *testing.T) {
	cfg := Config{}
	p := 64.0 / 5000
	loose := planFrames(5000, cfg, p, 0.10)
	tight := planFrames(5000, cfg, p, 0.02)
	if tight <= loose {
		t.Fatalf("tighter accuracy should need more frames: %d vs %d", tight, loose)
	}
	// Quadrupling accuracy costs ~16x frames.
	if tight < 10*loose {
		t.Fatalf("frame count should scale with 1/relErr^2: %d vs %d", tight, loose)
	}
}

func TestPlanFramesDegenerate(t *testing.T) {
	cfg := Config{}.withDefaults()
	if got := planFrames(100, Config{}, 0.1, 0); got != cfg.Frames {
		t.Fatalf("zero tolerance should fall back to the default frames, got %d", got)
	}
	if got := planFrames(0, Config{}, 0.1, 0.05); got != cfg.Frames {
		t.Fatalf("degenerate population should fall back, got %d", got)
	}
}

func TestPlannedAccuracyAchieved(t *testing.T) {
	// Running the planned number of frames should achieve roughly the
	// requested accuracy across repeated pre-estimations.
	const n, relErr = 3000, 0.05
	cfg := Config{FrameSize: 64}
	p := 64.0 / float64(n)
	frames := planFrames(n, cfg, p, relErr)
	cfg.Frames = frames

	var errs []float64
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Estimate(env(seed+100, n), cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(res.Estimate-float64(n))/float64(n))
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	if mean := sum / float64(len(errs)); mean > 2.5*relErr {
		t.Fatalf("mean relative error %.3f far above planned %.3f (frames=%d)", mean, relErr, frames)
	}
}
