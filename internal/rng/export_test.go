package rng

import "fmt"

// Int63 returns a non-negative random int64.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bernoulli returns 1 with probability P, else 0.
type Bernoulli struct{ P float64 }

// Sample draws 0 or 1.
func (b Bernoulli) Sample(src *Source) float64 {
	if src.Float64() < b.P {
		return 1
	}
	return 0
}

// Mean returns P.
func (b Bernoulli) Mean() float64 { return b.P }

func (b Bernoulli) String() string { return fmt.Sprintf("bernoulli(p=%g)", b.P) }
