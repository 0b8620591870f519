package san

// Structure is a plain-data snapshot of a model's static structure: places
// with their initial markings and join relations, activities with their
// documented links and case weights, and reward variables with their
// documented references. It is the interface between the model builder and
// static analysis (package sanalyze): gate code is opaque closures, so
// everything an analyzer can reason about is captured here.
type Structure struct {
	Name       string
	Places     []PlaceInfo
	Activities []ActivityInfo
	Rewards    []RewardInfo
	// Conservations are the declared token-conservation laws, for the
	// structural analyzer to verify against the documented incidence.
	Conservations []Conservation
}

// PlaceInfo describes one place.
type PlaceInfo struct {
	Name string
	// Initial is the initial marking; always 0 for extended places.
	Initial int
	// Capacity is the declared, runtime-enforced upper bound on the
	// marking; 0 means undeclared. Always 0 for extended places.
	Capacity int
	// Extended reports whether the place holds a structured value rather
	// than a token count.
	Extended bool
	// Joins lists the submodels sharing the place, starting with its
	// creator (the join-place relation of the paper's Tables 1 and 2).
	Joins []string
}

// CaseInfo describes one probabilistic case of an activity.
type CaseInfo struct {
	// Weight is the case weight evaluated under the marking current at
	// snapshot time (the initial marking for a freshly built model).
	Weight float64
}

// ActivityInfo describes one activity.
type ActivityInfo struct {
	Name     string
	Kind     ActivityKind
	Priority int
	// Predicates is the number of enabling predicates attached (each
	// counted input arc is one; GatePredicates counts the rest).
	Predicates int
	// GatePredicates / GateCases count the opaque gate components:
	// predicates and cases added directly through Predicate and AddCase.
	// An activity with both zero is a pure-arc activity: its enabling
	// condition and marking effect are exactly its counted links, so
	// structural analysis can execute it symbolically.
	GatePredicates int
	GateCases      int
	Cases          []CaseInfo
	Links          []Link
}

// RewardKind distinguishes rate from impulse rewards.
type RewardKind int

// Reward kinds.
const (
	RewardRate RewardKind = iota + 1
	RewardImpulse
)

// RewardInfo describes one reward variable.
type RewardInfo struct {
	Name string
	Kind RewardKind
	// Activity is the triggering activity of an impulse reward; empty for
	// rate rewards.
	Activity string
	// Refs are the documented place/activity references of the reward
	// function.
	Refs []string
}

// Structure snapshots the model's static structure. Case weights are
// evaluated under the current marking, so take the snapshot on a freshly
// built (or reset) model; weight functions must tolerate being called
// outside a run.
func (m *Model) Structure() Structure {
	st := Structure{Name: m.name}
	for _, c := range m.conservations {
		st.Conservations = append(st.Conservations, Conservation{
			Name:    c.Name,
			Weights: append([]PlaceWeight(nil), c.Weights...),
		})
	}
	for _, p := range m.places {
		st.Places = append(st.Places, PlaceInfo{
			Name:     p.name,
			Initial:  p.initial,
			Capacity: p.capacity,
			Joins:    append([]string(nil), p.joins...),
		})
	}
	for _, p := range m.extPlaces {
		st.Places = append(st.Places, PlaceInfo{
			Name:     p.Name(),
			Extended: true,
			Joins:    p.JoinedBy(),
		})
	}
	for _, a := range m.activities {
		info := ActivityInfo{
			Name:           a.name,
			Kind:           a.kind,
			Priority:       a.priority,
			Predicates:     a.inputArcs() + len(a.preds),
			GatePredicates: len(a.preds),
			GateCases:      a.gateCases,
			Links:          a.Links(),
		}
		for _, c := range a.cases {
			info.Cases = append(info.Cases, CaseInfo{Weight: c.Weight()})
		}
		st.Activities = append(st.Activities, info)
	}
	for _, r := range m.rates {
		st.Rewards = append(st.Rewards, RewardInfo{
			Name: r.Name,
			Kind: RewardRate,
			Refs: m.placeRefs(r.Refs),
		})
	}
	for _, r := range m.impulses {
		st.Rewards = append(st.Rewards, RewardInfo{
			Name:     r.Name,
			Kind:     RewardImpulse,
			Activity: r.Activity.Name(),
			Refs:     m.placeRefs(r.Refs),
		})
	}
	return st
}

// placeRefs copies reward refs with every projection ref replaced by its
// extended place: a projection narrows when the executor re-evaluates a
// reward, not what the reward reads from the model's structure.
func (m *Model) placeRefs(refs []string) []string {
	out := append([]string(nil), refs...)
	for i, ref := range out {
		for _, pr := range m.projections {
			if pr.name == ref {
				out[i] = m.extPlaces[pr.ext].Name()
				break
			}
		}
	}
	return out
}
