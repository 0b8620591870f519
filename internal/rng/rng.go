// Package rng provides the random-number substrate for the simulator: a
// seedable, splittable xoshiro256++ generator and the workload distributions
// the framework's workload-generator model is parameterized with.
//
// The simulator never uses the global math/rand source: every replication
// owns independent streams derived deterministically from the experiment
// seed, so runs are reproducible and replications are statistically
// independent.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, which guarantees a
// well-mixed non-zero state for any seed (including 0).
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes the source in place to the exact state New(seed)
// produces, so pooled components can rewind their streams between
// replications without reallocating. Reseed(u) on a child stream is
// bit-identical to replacing it with parent.Split() when u came from the
// same parent.Uint64() draw.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
}

// splitMix64 advances a SplitMix64 state and returns the next state and
// output. It is the recommended seeding procedure for xoshiro generators.
func splitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent child stream. The child is seeded from the
// parent's output mixed through SplitMix64, so parent and child sequences do
// not overlap in practice.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpInv returns a unit-rate exponential variate by inversion. This is the
// determinism contract's exponential sampling primitive: 1-Float64() is in
// (0,1], so Log never sees 0 and the result is always finite and
// non-negative. All log-based sampling in the repository must route through
// this method (enforced by the raw-sampling lint rule) so the byte-freeze of
// the variate stream has a single definition.
func (r *Source) ExpInv() float64 {
	return -math.Log(1 - r.Float64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Distribution produces random variates. Implementations must be safe for
// sequential use from a single goroutine; they are not required to be
// goroutine-safe because each replication owns its streams.
type Distribution interface {
	// Sample draws one variate using src.
	Sample(src *Source) float64
	// Mean returns the distribution's analytic mean, used in reports and
	// sanity tests.
	Mean() float64
	fmt.Stringer
}

// Deterministic is a constant distribution.
type Deterministic struct{ Value float64 }

// Sample returns the constant value.
func (d Deterministic) Sample(*Source) float64 { return d.Value }

// Mean returns the constant value.
func (d Deterministic) Mean() float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("deterministic(%g)", d.Value) }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct{ Low, High float64 }

// Sample draws uniformly from [Low, High).
func (u Uniform) Sample(src *Source) float64 { return u.Low + (u.High-u.Low)*src.Float64() }

// Mean returns (Low+High)/2.
func (u Uniform) Mean() float64 { return (u.Low + u.High) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.Low, u.High) }

// Exponential is the exponential distribution with the given rate (λ).
type Exponential struct{ Rate float64 }

// Sample draws an exponential variate by inversion.
func (e Exponential) Sample(src *Source) float64 {
	return src.ExpInv() / e.Rate
}

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

func (e Exponential) String() string { return fmt.Sprintf("exponential(rate=%g)", e.Rate) }

// Erlang is the Erlang distribution: the sum of K exponentials of the given
// rate.
type Erlang struct {
	K    int
	Rate float64
}

// MaxErlangK is the largest Erlang shape the experiment and fault-plan
// builders accept. A draw sums K exponentials, so the cap bounds one
// draw's cost; a larger shape (coefficient of variation below 1/32) is
// close enough to deterministic to be written as one.
const MaxErlangK = 1024

// Sample draws an Erlang variate as a sum of exponentials.
func (e Erlang) Sample(src *Source) float64 {
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += src.ExpInv()
	}
	return sum / e.Rate
}

// Mean returns K/Rate.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

func (e Erlang) String() string { return fmt.Sprintf("erlang(k=%d,rate=%g)", e.K, e.Rate) }

// Normal is the normal distribution with the given mean and standard
// deviation. Samples are not truncated; callers that need non-negative
// values should clamp.
type Normal struct{ Mu, Sigma float64 }

// Sample draws a normal variate via the Box-Muller transform.
func (n Normal) Sample(src *Source) float64 {
	u1 := 1 - src.Float64() // in (0,1]
	u2 := src.Float64()
	return n.Mu + n.Sigma*boxMuller(u1, u2)
}

// boxMuller maps two uniforms to a standard normal variate. u1 must be in
// (0,1]; a non-positive u1 (which the samplers never produce, but arbitrary
// callers could) is clamped to the smallest draw Float64 can yield so the
// result stays finite instead of propagating ±Inf through Sqrt(Log(0)).
func boxMuller(u1, u2 float64) float64 {
	if u1 <= 0 {
		u1 = 0x1p-53
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

func (n Normal) String() string { return fmt.Sprintf("normal(mu=%g,sigma=%g)", n.Mu, n.Sigma) }

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma)).
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (l LogNormal) Sample(src *Source) float64 {
	return math.Exp(Normal{Mu: l.Mu, Sigma: l.Sigma}.Sample(src))
}

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

func (l LogNormal) String() string { return fmt.Sprintf("lognormal(mu=%g,sigma=%g)", l.Mu, l.Sigma) }

// Geometric is the geometric distribution counting trials until the first
// success (support 1, 2, 3, ...), with success probability P.
type Geometric struct{ P float64 }

// Sample draws a geometric variate by inversion.
func (g Geometric) Sample(src *Source) float64 {
	return geometricInv(1-src.Float64(), g.P) // u in (0,1]
}

// geometricInv inverts the geometric CDF at u with success probability p.
// The edge draw u == 1 (probability 2^-53) makes the ratio -0, and p == 1
// makes Log(1-p) == -Inf with the same effect; both land outside the
// distribution's support {1, 2, 3, ...}, so the result is clamped to 1.
// Every interior draw is untouched: the clamp only replaces values < 1,
// which the inversion cannot produce for u in (0,1).
func geometricInv(u, p float64) float64 {
	k := math.Ceil(math.Log(u) / math.Log(1-p))
	if k < 1 {
		return 1
	}
	return k
}

// Mean returns 1/P.
func (g Geometric) Mean() float64 { return 1 / g.P }

func (g Geometric) String() string { return fmt.Sprintf("geometric(p=%g)", g.P) }

// Empirical is a discrete distribution over Values with the given Weights.
// Weights need not be normalized. NewEmpirical validates the inputs.
type Empirical struct {
	values  []float64
	cum     []float64 // cumulative normalized weights
	mean    float64
	totalWt float64
}

// NewEmpirical builds an Empirical distribution. It returns an error if the
// slices differ in length, are empty, or any weight is negative or all are
// zero.
func NewEmpirical(values, weights []float64) (*Empirical, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("rng: empirical distribution needs at least one value")
	}
	if len(values) != len(weights) {
		return nil, fmt.Errorf("rng: empirical values/weights length mismatch: %d vs %d", len(values), len(weights))
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("rng: empirical weight %d is invalid: %g", i, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("rng: empirical weights sum to zero")
	}
	e := &Empirical{
		values:  append([]float64(nil), values...),
		cum:     make([]float64, len(weights)),
		totalWt: total,
	}
	run := 0.0
	for i, w := range weights {
		run += w / total
		e.cum[i] = run
		e.mean += values[i] * (w / total)
	}
	e.cum[len(e.cum)-1] = 1 // guard against rounding
	return e, nil
}

// Sample draws one of the values with probability proportional to its
// weight.
func (e *Empirical) Sample(src *Source) float64 {
	u := src.Float64()
	// Linear scan: empirical distributions in this simulator are small.
	for i, c := range e.cum {
		if u < c {
			return e.values[i]
		}
	}
	return e.values[len(e.values)-1]
}

// Mean returns the weighted mean of the values.
func (e *Empirical) Mean() float64 { return e.mean }

func (e *Empirical) String() string { return fmt.Sprintf("empirical(%d values)", len(e.values)) }
