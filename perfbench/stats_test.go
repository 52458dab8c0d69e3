package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := ramp(10)
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {100, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%g of 1..10 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// TestTailTenBeyond checks that the tail helper reports the highest ladder
// percentile with at least ten samples beyond it.
func TestTailTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n                int
		level, wantValue float64
	}{
		{100000, 99, 99000}, // the ladder tops out at p99
		{1000, 99, 990},     // 10 samples beyond p99
		{999, 90, 900},
		{100, 90, 90},
		{99, 75, 75},
		{40, 75, 30},
		{39, 50, 20}, // no ladder level qualifies: the median
		{1, 50, 1},
	} {
		level, v := tail(ramp(tc.n))
		if level != tc.level || v != tc.wantValue {
			t.Errorf("n=%d: tail = p%g %g, want p%g %g", tc.n, level, v, tc.level, tc.wantValue)
		}
		if level > 50 {
			beyond := 0
			for _, x := range ramp(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, level)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
}

// TestOpCounterCountsRefusals checks that every attempt is counted and that
// refusals, server errors, unexpected statuses and transport errors all
// count as failed.
func TestOpCounterCountsRefusals(t *testing.T) {
	var c opCounter
	for _, tc := range []struct {
		status int
		err    error
		ok     bool
	}{
		{http.StatusOK, nil, true},
		{http.StatusCreated, nil, true},
		{http.StatusNoContent, nil, true},
		{http.StatusTooManyRequests, nil, false},
		{http.StatusServiceUnavailable, nil, false},
		{http.StatusInternalServerError, nil, false},
		{http.StatusNotFound, nil, false},
		{0, errors.New("connection reset"), false},
		{http.StatusOK, errors.New("body read failed"), false},
		{http.StatusTooManyRequests, nil, false},
	} {
		if got := c.record(tc.status, tc.err); got != tc.ok {
			t.Errorf("record(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.ok)
		}
	}
	if c.attempted != 10 || c.failed != 7 || c.refused != 2 {
		t.Fatalf("counter = %+v, want 10 attempted, 7 failed, 2 refused", c)
	}
	var total opCounter
	total.merge(c)
	total.merge(c)
	if total.attempted != 20 || total.failed != 14 || total.refused != 4 {
		t.Fatalf("merged counter = %+v", total)
	}
}

// TestBenchmarkJSONMatches checks that the metric names and units the
// program prints are the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range endToEnd {
		if want[m.name] != m.unit {
			t.Errorf("end-to-end metric %s [%s] not declared with that unit", m.name, m.unit)
		}
	}
	if len(want) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(want), len(endToEnd))
	}
}
