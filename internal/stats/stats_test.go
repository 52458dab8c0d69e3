package stats

import (
	"math"
	"testing"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary %+v", s)
	}
	// Sample std with n-1: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7); math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std %v, want %v", s.Std, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.Min != 3 || s.Max != 3 {
		t.Fatalf("single summary %+v", s)
	}
	if s.CI95() != 0 {
		t.Fatal("CI of single observation should be 0")
	}
}

func TestCI95(t *testing.T) {
	s := Summary{N: 100, Std: 10}
	if want := 1.96; math.Abs(s.CI95()-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}
