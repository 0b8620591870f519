package sanalyze

import "vcpusim/internal/san"

// net is the structural view the analyses share: token places indexed
// densely, activities with their counted arc effects separated from the
// opaque (zero-count or gate-mediated) connections.
type net struct {
	name     string
	places   []placeNode
	placeIdx map[string]int // token places only
	acts     []actNode
	disabled map[string]bool
}

type placeNode struct {
	name     string
	initial  int
	capacity int
	// vagueWriters lists activities with a zero-count output link to the
	// place: they write it an amount the structure does not quantify, so
	// the place is ineligible for exact incidence math.
	vagueWriters []string
}

// arc is one counted token flow aggregated per place.
type arc struct {
	place int
	n     int
}

type actNode struct {
	name     string
	kind     san.ActivityKind
	priority int
	defined  int

	in  []arc // counted input arcs, aggregated per place (consumption sums)
	out []arc // counted output arcs, aggregated per place
	// inReq is the per-place enabling requirement. The runtime installs
	// an independent ≥ predicate per arc, so two one-token arcs on one
	// place require one token but consume two; keeping the max separate
	// from the sum lets the explorer reproduce that (and flag the
	// negative marking it causes).
	inReq []arc

	// preds is the total predicate count; arcPreds is the number of
	// counted input links. For a pure-arc activity preds == arcPreds:
	// the enabling condition is exactly "every counted input satisfied".
	preds    int
	arcPreds int

	gatePreds, gateFns, gateCases int
	// vague reports zero-count links or links to extended places: the
	// activity reads or writes state the incidence matrix cannot see.
	vague bool
	// disabled activities are excluded from the run (Options.Disabled).
	disabled bool
}

// pure reports that the activity's enabling condition and marking effect
// are exactly its counted arcs, so reachability can fire it symbolically.
func (a *actNode) pure() bool {
	return a.gatePreds == 0 && a.gateFns == 0 && a.gateCases == 0 &&
		!a.vague && a.preds == a.arcPreds
}

// effect returns the activity's net counted effect on place p (output
// minus input tokens), or 0 when unconnected.
func (a *actNode) effect(p int) int {
	d := 0
	for _, x := range a.out {
		if x.place == p {
			d += x.n
		}
	}
	for _, x := range a.in {
		if x.place == p {
			d -= x.n
		}
	}
	return d
}

// buildNet indexes the structure snapshot for analysis.
func buildNet(st san.Structure, disabled []string) *net {
	n := &net{
		name:     st.Name,
		placeIdx: make(map[string]int),
		disabled: make(map[string]bool, len(disabled)),
	}
	for _, d := range disabled {
		n.disabled[d] = true
	}
	for _, p := range st.Places {
		if p.Extended {
			continue
		}
		n.placeIdx[p.Name] = len(n.places)
		n.places = append(n.places, placeNode{
			name:     p.Name,
			initial:  p.Initial,
			capacity: p.Capacity,
		})
	}
	for i, a := range st.Activities {
		an := actNode{
			name:      a.Name,
			kind:      a.Kind,
			priority:  a.Priority,
			defined:   i,
			preds:     a.Predicates,
			gatePreds: a.GatePredicates,
			gateFns:   a.GateFuncs,
			gateCases: a.GateCases,
			disabled:  n.disabled[a.Name],
		}
		inN := map[int]int{}
		reqN := map[int]int{}
		outN := map[int]int{}
		for _, l := range a.Links {
			pi, ok := n.placeIdx[l.Place]
			if !ok {
				// Extended place (or a dangling name, reported as
				// unknown-link): invisible to token math.
				an.vague = true
				continue
			}
			if l.Tokens <= 0 {
				an.vague = true
				if l.Kind == san.LinkOutput {
					n.places[pi].vagueWriters = append(n.places[pi].vagueWriters, a.Name)
				}
				continue
			}
			if l.Kind == san.LinkInput {
				inN[pi] += l.Tokens
				if l.Tokens > reqN[pi] {
					reqN[pi] = l.Tokens
				}
				an.arcPreds++
			} else {
				outN[pi] += l.Tokens
			}
		}
		an.in = arcsOf(inN)
		an.inReq = arcsOf(reqN)
		an.out = arcsOf(outN)
		n.acts = append(n.acts, an)
	}
	return n
}

func arcsOf(m map[int]int) []arc {
	if len(m) == 0 {
		return nil
	}
	out := make([]arc, 0, len(m))
	for p, c := range m {
		out = append(out, arc{place: p, n: c})
	}
	// Deterministic order for hashing and reports.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].place < out[j-1].place; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// eligible reports whether a place's marking is fully described by
// counted arcs: no activity writes it an unquantified amount. Reads
// (zero-count input links) are fine — they cannot change the marking,
// and the conformance check forbids undeclared writes.
func (n *net) eligible(p int) bool { return len(n.places[p].vagueWriters) == 0 }

// initialMarking returns the token-place marking vector.
func (n *net) initialMarking() []int {
	m := make([]int, len(n.places))
	for i, p := range n.places {
		m[i] = p.initial
	}
	return m
}
