// Package stats provides the small set of descriptive statistics the
// Monte-Carlo experiments report.
package stats

import "math"

// Summary describes a sample of observations.
type Summary struct {
	N    int
	Mean float64
	// Std is the sample standard deviation (n-1 denominator).
	Std float64
	Min float64
	Max float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
