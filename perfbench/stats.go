package main

import (
	"math"
	"net/http"
	"sort"
	"time"
)

// tailLevels is the ladder of percentiles the tail helper picks from. It
// tops out at p99: beyond that the figure follows the rate of host
// scheduling hiccups more than the program.
var tailLevels = []float64{99, 90, 75}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// samples: the smallest sample with at least p percent of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// epsilon keeps a product such as 99.9% × 10000 from rounding up a rank.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tail reports the highest percentile on the ladder that still has at
// least ten samples beyond it, and its value. With fewer than forty samples
// no level qualifies and it falls back to the median (level 50).
func tail(sorted []float64) (level, value float64) {
	n := len(sorted)
	for _, p := range tailLevels {
		rank := nearestRank(p, n)
		if n-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 50, percentile(sorted, 50)
}

// latencies collects per-operation durations in milliseconds.
type latencies struct {
	ms []float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

// summary is a latency distribution reduced to the figures the benchmark
// prints: the sample count, the median and the tail percentile.
type summary struct {
	n         int
	p50       float64
	tailLevel float64
	tail      float64
}

func (l *latencies) summarize() summary {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	lvl, v := tail(s)
	return summary{n: len(s), p50: percentile(s, 50), tailLevel: lvl, tail: v}
}

// median returns the nearest-rank median of xs; xs is left untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// opCounter counts attempted and failed operations. A transport error, a
// refusal (429) and any status outside 2xx count as failed: a benchmark
// script only issues requests that must succeed, so even a 404 or 409 means
// the operation did not do its work.
type opCounter struct {
	attempted int
	failed    int
	refused   int
}

// record counts one attempted HTTP operation from its status code and
// transport error, and reports whether it succeeded.
func (c *opCounter) record(status int, err error) bool {
	c.attempted++
	if err == nil && status >= 200 && status < 300 {
		return true
	}
	c.failed++
	if status == http.StatusTooManyRequests {
		c.refused++
	}
	return false
}

func (c *opCounter) merge(o opCounter) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.refused += o.refused
}
