package sim

import (
	"math"
	"math/rand"
)

// splitmix64 is the generator under every RNG: Steele, Lea & Flood's
// SplitMix64, one word of state advanced by the golden-ratio increment
// and finalised by two xor-shift multiplies. It is committed here, not
// borrowed from the standard library, so every digest in the tree is a
// property of this file.
type splitmix64 uint64

const splitmixGamma = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed sets the state to the first output of the generator started at
// seed — one increment, one finalizer round — so seeds that differ by a
// small integer or by the increment start far apart on the 2^64 cycle
// instead of one draw apart, and seed 0 is not the finalizer's fixed
// point.
func (s *splitmix64) Seed(seed int64) {
	*s = splitmix64(seed)
	*s = splitmix64(s.Uint64())
}

func (s *splitmix64) Uint64() uint64 {
	*s += splitmixGamma
	return mix64(uint64(*s))
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// RNG is a seeded, reproducible random stream. The bits come from the
// in-tree splitmix64 above; the distributions over them (Float64, Intn,
// NormFloat64, ExpFloat64, Perm, Shuffle) are math/rand.Rand's, whose
// output for a given source is frozen by the Go 1 promise. Source and
// front are held by value, so a stream is one 64-byte allocation and
// costs nothing to seed. Streams derived with Derive are statistically
// independent and stable across runs for the same (seed, name) pair.
type RNG struct {
	src  splitmix64
	r    rand.Rand
	seed int64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// Derive returns a child stream keyed by name: the child's seed is the
// parent's seed xor the 64-bit FNV-1a hash of name. The child's sequence
// does not depend on how much of the parent has been consumed.
func (g *RNG) Derive(name string) *RNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return NewRNG(g.seed ^ int64(h))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Norm returns a normal sample with the given mean and standard deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exp returns an exponential sample with the given mean (not rate). A
// non-positive mean returns 0.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Sample moves a uniform random k-subset of n elements, in uniform
// random order, into positions [0,k) using swap: the first k steps of a
// Fisher–Yates shuffle. It makes exactly min(k,n) draws, so choosing
// k = 3 of 13 costs three, where Shuffle costs twelve; k >= n permutes.
func (g *RNG) Sample(n, k int, swap func(i, j int)) {
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		swap(i, i+g.r.Intn(n-i))
	}
}

// Pick returns a uniformly random index into a slice of length n, or -1
// if n <= 0.
func (g *RNG) Pick(n int) int {
	if n <= 0 {
		return -1
	}
	return g.r.Intn(n)
}

// Beta returns a sample from the Beta(a,b) distribution using Jöhnk's
// gamma-ratio construction. Both parameters must be positive; invalid
// parameters yield 0.5.
func (g *RNG) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0.5
	}
	x := g.Gamma(a)
	y := g.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a sample from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method. A non-positive shape yields 0.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson sample with the given mean using inversion
// for small means and normal approximation above 500 (adequate for
// workload generation). A non-positive mean returns 0.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := g.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
