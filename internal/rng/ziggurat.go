package rng

import "math"

// Ziggurat standard-normal sampler (Marsaglia & Tsang, "The Ziggurat
// Method for Generating Random Variables", J. Stat. Software 5(8), 2000),
// the method behind Go's math/rand NormFloat64.
//
// The half-density f(x) = exp(-x²/2) is covered by 128 strips of equal
// area zigV: strip 0 is the base (a rectangle of height f(zigR) plus the
// tail beyond zigR), strips 1..127 are rectangles stacked above it, strip
// i spanning heights [f(x_i), f(x_{i-1})] with right edge x_i (x_0 = 0 at
// the peak, x_127 = zigR). A draw picks a strip and a uniform abscissa in
// [0, x_i); when that abscissa lies left of x_{i-1} (about 99 % of draws)
// the point is under the curve and is returned at once.
const (
	zigStrips = 128
	zigR      = 3.442619855899        // x_127, where the tail begins
	zigV      = 9.91256303526217e-3   // area of every strip
	zigScale  = 1 << 53               // abscissa resolution: 53 random bits
	zigSign   = uint64(1) << 63       // float64 sign bit
	zigMask   = uint64(zigStrips - 1) // strip-index mask
)

// zigK[i] is floor(2^53·x_{i-1}/x_i), the fast-accept bound on the 53-bit
// abscissa (strip 0 uses zigR over the base's equivalent width); zigW[i]
// is x_i/2^53; zigF[i] is f(x_i). Built once from the recurrence
// x_{i-1} = f⁻¹(zigV/x_i + f(x_i)).
var (
	zigK [zigStrips]uint64
	zigW [zigStrips]float64
	zigF [zigStrips]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	q := zigV / f(zigR) // base strip width if its area were all rectangle
	zigK[0] = uint64(zigR / q * zigScale)
	zigW[0] = q / zigScale
	zigF[0] = 1
	x := zigR
	zigW[zigStrips-1] = x / zigScale
	zigF[zigStrips-1] = f(x)
	for i := zigStrips - 2; i >= 1; i-- {
		next := math.Sqrt(-2 * math.Log(zigV/x+f(x)))
		zigK[i+1] = uint64(next / x * zigScale)
		x = next
		zigW[i] = x / zigScale
		zigF[i] = f(x)
	}
	// zigK[1] stays 0: the top strip's left neighbour is the peak, so
	// every draw there takes the wedge test.
}

// ZigNormFloat64 returns a standard normal deviate by the ziggurat method.
// The common path costs one Uint64, a table lookup, a multiply and a
// compare; only wedge and tail draws (about 1 %) evaluate Exp or Log. One
// Uint64 supplies the strip (bits 0-6), the sign (bit 7) and a 53-bit
// abscissa (bits 11-63), so no bit serves two purposes.
//
// It is the sampler behind all AWGN in the signal channel. NormFloat64
// (polar Box–Muller) is kept only for Binomial: the two produce different
// streams from the same Source, and the abstract channel's pinned goldens
// depend on Binomial's, so the samplers must not be unified.
func (r *Source) ZigNormFloat64() float64 {
	u := r.Uint64()
	i := u & zigMask
	j := u >> 11
	if j < zigK[i] {
		return math.Float64frombits(math.Float64bits(float64(j)*zigW[i]) | u<<56&zigSign)
	}
	return r.zigSlow(u)
}

// zigSlow finishes a draw that missed the fast path: the tail beyond zigR
// for the base strip, the wedge test otherwise, and a fresh draw on
// rejection.
func (r *Source) zigSlow(u uint64) float64 {
	for {
		i := u & zigMask
		j := u >> 11
		x := float64(j) * zigW[i]
		switch {
		case j < zigK[i]:
		case i == 0:
			// Marsaglia's tail method: propose x ~ Exp(zigR) beyond zigR
			// and accept when a second Exp(1) deviate y has 2y ≥ x².
			for {
				x = -math.Log(1-r.Float64()) / zigR
				y := -math.Log(1 - r.Float64())
				if y+y >= x*x {
					break
				}
			}
			x += zigR
		case zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x):
		default:
			u = r.Uint64()
			continue
		}
		return math.Float64frombits(math.Float64bits(x) | u<<56&zigSign)
	}
}
