// Package rng provides a small, deterministic pseudo-random number source
// used by every simulation in this module.
//
// The protocols and experiments in this repository are Monte-Carlo
// simulations whose published outputs must be reproducible bit-for-bit from
// a seed. The standard library's math/rand/v2 would work, but pinning our
// own generator keeps results stable across Go releases and lets us derive
// independent child streams for parallel runs.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by the xoshiro authors.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive one Source per goroutine with Split.
type Source struct {
	s [4]uint64

	// Spare normal deviate from the last Box-Muller pair.
	normSpare    float64
	hasNormSpare bool

	// Memo of the last math.Pow(q, n) evaluated by binomialInversion. The
	// protocols draw Binomial(n, p) once per slot with p fixed for a whole
	// frame and n changing only when a tag is silenced, so consecutive slots
	// usually repeat the same (q, n) pair; caching the transcendental makes
	// the common draw a table walk. A memo hit returns the bit-identical
	// value a fresh math.Pow call would, so the sampled stream is unchanged.
	powQ   float64
	powN   int
	powVal float64
}

// New returns a Source seeded from seed. Distinct seeds yield streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with the all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Split derives a child Source whose stream is independent of the parent's
// subsequent output. It is used to hand one generator to each Monte-Carlo
// run so runs can be reordered or parallelised without changing results.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	thresh := -n % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= thresh {
			return hi
		}
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate (Box-Muller, polar form).
//
// Its only caller is Binomial's large-mean branch, which feeds the
// default TxBinomial transmitter model on the abstract channel. That
// stream is pinned by every abstract golden cell and by the abstract
// sessions in server checkpoints, so it stays polar; AWGN uses the faster
// ZigNormFloat64. Do not unify the two: either direction moves a pinned
// stream.
func (r *Source) NormFloat64() float64 {
	if r.hasNormSpare {
		r.hasNormSpare = false
		return r.normSpare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.normSpare = v * f
		r.hasNormSpare = true
		return u * f
	}
}

// binomialInversionCutoff bounds the expected work of the sequential-search
// binomial sampler; above it the normal approximation is indistinguishable
// for our workloads (collision slots with hundreds of transmitters).
const binomialInversionCutoff = 32

// Binomial returns a sample from Binomial(n, p).
//
// The report probabilities in the RFID protocols keep n*p near the design
// constant omega (about 1.4-2.2), so the common case is handled by CDF
// inversion in O(n*p) expected time. For the rare large-mean case (e.g. the
// estimator bootstrap frames where p is far too high) a clamped normal
// approximation is used; those slots are deep collisions whichever exact
// value is drawn, so the approximation does not affect protocol behaviour.
func (r *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	flip := false
	if p > 0.5 {
		// Sample the complement to keep the mean small.
		p = 1 - p
		flip = true
	}
	var k int
	mean := float64(n) * p
	switch {
	case n <= 16:
		// Direct Bernoulli counting; cheapest and exact for tiny n.
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
	case mean <= binomialInversionCutoff:
		k = r.binomialInversion(n, p)
	default:
		sd := math.Sqrt(mean * (1 - p))
		k = int(math.Round(mean + sd*r.NormFloat64()))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
	}
	if flip {
		k = n - k
	}
	return k
}

// binomialInversion walks the binomial CDF from k=0. Requires n*p small
// enough that (1-p)^n does not underflow (guaranteed by the caller).
func (r *Source) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	if r.powQ != q || r.powN != n || r.powVal == 0 {
		r.powQ, r.powN, r.powVal = q, n, math.Pow(q, float64(n))
	}
	pdf := r.powVal
	cdf := pdf
	u := r.Float64()
	k := 0
	for u > cdf && k < n {
		k++
		pdf *= s * float64(n-k+1) / float64(k)
		cdf += pdf
	}
	return k
}

// SampleDistinct returns k distinct integers drawn uniformly from [0, n),
// in no particular order. It panics if k > n or k < 0.
func (r *Source) SampleDistinct(k, n int) []int {
	if k == 0 {
		return nil
	}
	out := r.SampleDistinctAppend(nil, k, n)
	return out[:k:k]
}

// SampleDistinctAppend draws k distinct integers uniformly from [0, n) and
// appends them to buf, which callers reuse across draws to keep the per-slot
// sampling allocation-free. It panics if k > n or k < 0. The generator
// stream it consumes is identical to SampleDistinct's for every (k, n): the
// same variates are drawn and the same acceptance decisions are made, so
// simulations keep their published outputs bit-for-bit.
func (r *Source) SampleDistinctAppend(buf []int, k, n int) []int {
	if k < 0 || k > n {
		panic("rng: SampleDistinct with k out of range")
	}
	if k == 0 {
		return buf
	}
	base := len(buf)
	if k*8 >= n {
		// Dense case: partial Fisher-Yates over an index array, materialised
		// in buf's spare capacity and truncated to the k chosen values.
		for i := 0; i < n; i++ {
			buf = append(buf, i)
		}
		idx := buf[base:]
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return buf[:base+k]
	}
	// Sparse case: rejection sampling against the values already chosen.
	// k < n/8 here, and the protocols' per-slot draws keep k near the design
	// constant omega (single digits), so the linear duplicate scan beats a
	// map; the accept/reject decisions match the map-based original exactly.
	for len(buf)-base < k {
		v := r.Intn(n)
		dup := false
		for _, u := range buf[base:] {
			if u == v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		buf = append(buf, v)
	}
	return buf
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
