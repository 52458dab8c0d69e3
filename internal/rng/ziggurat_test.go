package rng

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestNormalSamplers checks both normal samplers against N(0, 1) over
// 4·10⁶ draws from fixed seeds: the Kolmogorov–Smirnov statistic against
// the 1 % critical value, the first four moments within 5 standard errors,
// and the two-sided tail masses beyond 3 and 4 within 4 standard errors.
func TestNormalSamplers(t *testing.T) {
	const n = 4_000_000
	for _, tc := range []struct {
		name string
		seed uint64
		draw func(*Source) float64
	}{
		{"polar", 8, (*Source).NormFloat64},
		{"ziggurat", 9, (*Source).ZigNormFloat64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(tc.seed)
			xs := make([]float64, n)
			var sum float64
			for i := range xs {
				xs[i] = tc.draw(r)
				sum += xs[i]
			}
			mean := sum / n
			var m2, m4 float64
			var tail3, tail4 int
			for _, x := range xs {
				d := x - mean
				m2 += d * d
				m4 += d * d * d * d
				if a := math.Abs(x); a > 4 {
					tail4++
					tail3++
				} else if a > 3 {
					tail3++
				}
			}
			m2 /= n
			m4 /= n
			within := func(what string, got, want, se, z float64) {
				t.Helper()
				if math.Abs(got-want) > z*se {
					t.Errorf("%s = %.6g, want %.6g ± %g·%.3g", what, got, want, z, se)
				}
			}
			within("mean", mean, 0, math.Sqrt(1.0/n), 5)
			within("variance", m2, 1, math.Sqrt(2.0/n), 5)
			within("kurtosis", m4/(m2*m2), 3, math.Sqrt(24.0/n), 5)
			for _, tail := range []struct {
				at    float64
				count int
			}{{3, tail3}, {4, tail4}} {
				p := math.Erfc(tail.at / math.Sqrt2)
				within(fmt.Sprintf("P(|z|>%g)", tail.at), float64(tail.count)/n, p, math.Sqrt(p*(1-p)/n), 4)
			}

			sort.Float64s(xs)
			var d float64
			for i, x := range xs {
				cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
				d = math.Max(d, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
			}
			if ks := math.Sqrt(n) * d; ks >= 1.63 {
				t.Errorf("KS √n·D = %.3f, want < 1.63 (1%% critical value)", ks)
			} else {
				t.Logf("KS √n·D = %.3f", ks)
			}
		})
	}
}

// TestZigguratStripAreas checks the tables built at init: every strip,
// the base with its tail included, encloses area zigV under exp(-x²/2),
// the strip edges rise monotonically to zigR, and each fast-accept bound
// is the ratio of neighbouring edges.
func TestZigguratStripAreas(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	// Strips 0 and 2..127 are exact up to rounding by construction. The
	// top strip closes the recurrence (x_0 must come out 0), so it absorbs
	// the truncation of zigR to 13 digits: about 1.2e-9 relative.
	const tol, topTol = 1e-12, 1e-8
	check := func(i int, area float64) {
		t.Helper()
		rel := tol
		if i == 1 {
			rel = topTol
		}
		if math.Abs(area-zigV) > rel*zigV {
			t.Errorf("strip %d area %.15g, want %.15g", i, area, zigV)
		}
	}
	check(0, zigR*f(zigR)+math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2))
	prev := 0.0
	for i := 1; i < zigStrips; i++ {
		x := zigW[i] * zigScale
		if x <= prev {
			t.Fatalf("strip %d edge %g not above strip %d edge %g", i, x, i-1, prev)
		}
		if zigF[i] != f(x) {
			t.Fatalf("zigF[%d] = %g, want f(x_%d) = %g", i, zigF[i], i, f(x))
		}
		check(i, x*(zigF[i-1]-zigF[i]))
		if want := uint64(prev / x * zigScale); zigK[i] != want {
			t.Errorf("zigK[%d] = %d, want %d", i, zigK[i], want)
		}
		prev = x
	}
	if prev != zigR {
		t.Errorf("top strip edge %g, want zigR %g", prev, zigR)
	}
	if got, want := zigW[0]*zigScale*zigF[zigStrips-1], zigV; math.Abs(got-want) > tol*want {
		t.Errorf("base strip equivalent rectangle area %g, want %g", got, want)
	}
}
