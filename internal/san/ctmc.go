package san

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vcpusim/internal/rng"
)

// The paper's §II.A notes that a constructed SAN model "can be solved
// either analytically/numerically or by simulation, as provided by the
// Möbius tool". This file provides the numerical path for the subclass of
// models it is sound for: all timed activities exponentially distributed
// (so the tangible behaviour is a continuous-time Markov chain), no
// extended places, and marking-independent structure otherwise. The solver
// explores the reachable state space, eliminates vanishing markings
// (instantaneous stabilization, including probabilistic cases), builds the
// CTMC generator, and computes the stationary distribution by uniformized
// power iteration.
//
// The VCPU-scheduling framework itself is driven by a deterministic clock
// and extended places, so it is solved by simulation (as in the paper);
// the numerical solver completes the Möbius-substitute substrate and is
// validated against closed-form queueing results.

// SolveOptions bounds the numerical solution.
type SolveOptions struct {
	// MaxStates caps the explored tangible state space; default 100000.
	MaxStates int
	// Tol is the L1 convergence tolerance on the stationary distribution;
	// default 1e-10.
	Tol float64
	// MaxIter caps the power iterations; default 200000.
	MaxIter int
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxStates == 0 {
		o.MaxStates = 100000
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200000
	}
	return o
}

// SteadyState is the numerical solution of a model.
type SteadyState struct {
	// States is the number of tangible markings explored.
	States int
	// Iterations is the number of power iterations used.
	Iterations int
	// Rates maps each rate-reward name to its steady-state expectation.
	Rates map[string]float64
	// Throughput maps each timed activity name to its steady-state
	// completion rate (completions per unit time).
	Throughput map[string]float64
}

// marking is a snapshot of all integer places.
type marking []int

func (mk marking) key() string {
	var b strings.Builder
	for i, v := range mk {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// transition is one CTMC edge under construction.
type transition struct {
	to       int
	rate     float64
	activity int // index into model.activities, for throughput rewards
}

// SolveSteadyState computes the stationary distribution of the model's
// underlying CTMC and the resulting steady-state reward values. It returns
// an error if the model is outside the solvable subclass (extended places,
// non-exponential timed activities), if the reachable state space exceeds
// MaxStates (e.g. an open queue), or if the iteration fails to converge.
//
// The chain is assumed ergodic on its reachable set; deadlocked markings
// (no enabled timed activity) are rejected.
func SolveSteadyState(m *Model, opts SolveOptions) (SteadyState, error) {
	opts = opts.withDefaults()
	if err := m.Validate(); err != nil {
		return SteadyState{}, fmt.Errorf("san: model invalid: %w", err)
	}
	if len(m.extPlaces) > 0 {
		return SteadyState{}, fmt.Errorf("san: numerical solution requires a model without extended places (%d present)", len(m.extPlaces))
	}
	var timed, instants []*Activity
	timedIndex := make(map[*Activity]int)
	for i, a := range m.activities {
		switch a.kind {
		case Timed:
			if _, ok := a.dist.(rng.Exponential); !ok {
				return SteadyState{}, fmt.Errorf("san: numerical solution requires exponential delays; activity %s has %v", a.name, a.dist)
			}
			timed = append(timed, a)
			timedIndex[a] = i
		case Instantaneous:
			instants = append(instants, a)
		}
	}
	if len(timed) == 0 {
		return SteadyState{}, fmt.Errorf("san: no timed activities to solve")
	}
	sort.SliceStable(instants, func(i, j int) bool {
		if instants[i].priority != instants[j].priority {
			return instants[i].priority < instants[j].priority
		}
		return instants[i].defined < instants[j].defined
	})

	s := &solver{model: m, instants: instants, opts: opts, index: make(map[string]int)}
	defer m.reset()

	// Resolve the initial marking to tangible states.
	m.reset()
	init, err := s.resolveVanishing(s.capture(), 0)
	if err != nil {
		return SteadyState{}, err
	}

	// Breadth-first exploration of the tangible state space.
	var initProbs []weighted
	for _, w := range init {
		id, err := s.intern(w.mk)
		if err != nil {
			return SteadyState{}, err
		}
		initProbs = append(initProbs, weighted{mk: w.mk, p: w.p, id: id})
	}
	edges := make([][]transition, 0, 1024)
	for head := 0; head < len(s.states); head++ {
		if head >= opts.MaxStates {
			break
		}
		out, err := s.expand(s.states[head], timed, timedIndex)
		if err != nil {
			return SteadyState{}, err
		}
		edges = append(edges, out)
	}
	if len(s.states) > opts.MaxStates {
		return SteadyState{}, fmt.Errorf("san: state space exceeds MaxStates=%d (open model?)", opts.MaxStates)
	}

	pi, iters, err := stationary(edges, initProbs, opts)
	if err != nil {
		return SteadyState{}, err
	}

	// Reward expectations.
	res := SteadyState{
		States:     len(s.states),
		Iterations: iters,
		Rates:      make(map[string]float64, len(m.rates)),
		Throughput: make(map[string]float64, len(timed)),
	}
	for si, mk := range s.states {
		s.restore(mk)
		for _, rr := range m.rates {
			res.Rates[rr.Name] += pi[si] * rr.Fn()
		}
	}
	for si, out := range edges {
		for _, tr := range out {
			name := m.activities[tr.activity].name
			res.Throughput[name] += pi[si] * tr.rate
		}
	}
	return res, nil
}

// weighted is a probability-weighted tangible marking.
type weighted struct {
	mk marking
	p  float64
	id int
}

// solver carries exploration state.
type solver struct {
	model    *Model
	instants []*Activity
	opts     SolveOptions
	states   []marking
	index    map[string]int
}

// capture snapshots the current marking.
func (s *solver) capture() marking {
	mk := make(marking, len(s.model.places))
	for i, p := range s.model.places {
		mk[i] = p.tokens
	}
	return mk
}

// restore writes a marking back into the model's places.
func (s *solver) restore(mk marking) {
	for i, p := range s.model.places {
		p.tokens = mk[i]
	}
}

// intern returns the id of a tangible marking, adding it if new.
func (s *solver) intern(mk marking) (int, error) {
	k := mk.key()
	if id, ok := s.index[k]; ok {
		return id, nil
	}
	if len(s.states) > s.opts.MaxStates {
		return 0, fmt.Errorf("san: state space exceeds MaxStates=%d (open model?)", s.opts.MaxStates)
	}
	id := len(s.states)
	s.states = append(s.states, mk)
	s.index[k] = id
	return id, nil
}

// vanishingCap bounds instantaneous stabilization depth during state
// exploration.
const vanishingCap = 1 << 14

// resolveVanishing fires enabled instantaneous activities (in priority
// order) from the given marking until tangible markings are reached,
// branching on probabilistic cases. It returns the reachable tangible
// markings with probabilities.
func (s *solver) resolveVanishing(mk marking, depth int) ([]weighted, error) {
	if depth > vanishingCap {
		return nil, fmt.Errorf("san: instantaneous livelock during state exploration")
	}
	s.restore(mk)
	var fire *Activity
	for _, a := range s.instants {
		if a.enabled() {
			fire = a
			break
		}
	}
	if fire == nil {
		return []weighted{{mk: mk, p: 1}}, nil
	}
	// Evaluate case weights under the pre-firing marking.
	weights := make([]float64, len(fire.cases))
	total := 0.0
	for i, c := range fire.cases {
		w := c.Weight()
		if w < 0 {
			return nil, fmt.Errorf("san: negative case weight on %s", fire.name)
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("san: all case weights zero on %s", fire.name)
	}
	var out []weighted
	for i := range fire.cases {
		if weights[i] == 0 {
			continue
		}
		s.restore(mk)
		for _, st := range fire.arcs {
			st.p.Add(st.delta)
		}
		fire.cases[i].Output()
		next := s.capture()
		sub, err := s.resolveVanishing(next, depth+1)
		if err != nil {
			return nil, err
		}
		frac := weights[i] / total
		for _, w := range sub {
			out = append(out, weighted{mk: w.mk, p: w.p * frac})
		}
	}
	return mergeWeighted(out), nil
}

// mergeWeighted coalesces duplicate markings.
func mergeWeighted(in []weighted) []weighted {
	seen := make(map[string]int, len(in))
	var out []weighted
	for _, w := range in {
		k := w.mk.key()
		if i, ok := seen[k]; ok {
			out[i].p += w.p
			continue
		}
		seen[k] = len(out)
		out = append(out, w)
	}
	return out
}

// expand computes the outgoing CTMC transitions of one tangible marking.
func (s *solver) expand(mk marking, timed []*Activity, timedIndex map[*Activity]int) ([]transition, error) {
	var out []transition
	anyEnabled := false
	for _, a := range timed {
		s.restore(mk)
		if !a.enabled() {
			continue
		}
		anyEnabled = true
		rate := a.dist.(rng.Exponential).Rate
		// Case weights under the enabling marking.
		weights := make([]float64, len(a.cases))
		total := 0.0
		for i, c := range a.cases {
			w := c.Weight()
			if w < 0 {
				return nil, fmt.Errorf("san: negative case weight on %s", a.name)
			}
			weights[i] = w
			total += w
		}
		if total <= 0 {
			return nil, fmt.Errorf("san: all case weights zero on %s", a.name)
		}
		for i := range a.cases {
			if weights[i] == 0 {
				continue
			}
			s.restore(mk)
			for _, st := range a.arcs {
				st.p.Add(st.delta)
			}
			a.cases[i].Output()
			tangibles, err := s.resolveVanishing(s.capture(), 0)
			if err != nil {
				return nil, err
			}
			for _, w := range tangibles {
				id, err := s.intern(w.mk)
				if err != nil {
					return nil, err
				}
				out = append(out, transition{
					to:       id,
					rate:     rate * weights[i] / total * w.p,
					activity: timedIndex[a],
				})
			}
		}
	}
	if !anyEnabled {
		return nil, fmt.Errorf("san: deadlocked marking [%s] has no enabled timed activity", mk.key())
	}
	return out, nil
}

// stationary solves pi*Q = 0 by power iteration on the uniformized chain
// P = I + Q/Lambda.
func stationary(edges [][]transition, init []weighted, opts SolveOptions) ([]float64, int, error) {
	n := len(edges)
	if n == 0 {
		return nil, 0, fmt.Errorf("san: empty state space")
	}
	// Uniformization constant: strictly above the largest exit rate.
	lambda := 0.0
	exit := make([]float64, n)
	for si, out := range edges {
		for _, tr := range out {
			exit[si] += tr.rate
		}
		if exit[si] > lambda {
			lambda = exit[si]
		}
	}
	lambda *= 1.05
	if lambda == 0 {
		return nil, 0, fmt.Errorf("san: all transition rates zero")
	}

	pi := make([]float64, n)
	for _, w := range init {
		pi[w.id] += w.p
	}
	next := make([]float64, n)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for si, out := range edges {
			if pi[si] == 0 {
				continue
			}
			stay := pi[si] * (1 - exit[si]/lambda)
			next[si] += stay
			for _, tr := range out {
				next[tr.to] += pi[si] * tr.rate / lambda
			}
		}
		diff := 0.0
		for i := range next {
			diff += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if diff < opts.Tol {
			// Normalize against accumulated rounding.
			sum := 0.0
			for _, v := range pi {
				sum += v
			}
			for i := range pi {
				pi[i] /= sum
			}
			return pi, iter, nil
		}
	}
	return nil, opts.MaxIter, fmt.Errorf("san: power iteration did not converge within %d iterations", opts.MaxIter)
}
