package sanalyze

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vcpusim/internal/san"
)

// weightTolerance is the slack allowed when comparing a case-weight sum
// against 1.
const weightTolerance = 1e-9

// shape runs the static shape checks over the documented structure:
// case weights, link targets and joins, one-sided place flow, reward
// references, instantaneous token cycles, and the documented-arc
// dead-activity fixpoint used when reachability cannot give an exact
// verdict. Gate code is opaque, so these checks are conservative: a
// finding points at a structural defect or at missing Link/Share/reward
// documentation — both worth fixing, because the documented structure is
// what DOT export, the structural tests, and every other pass see.
type shape struct {
	st       san.Structure
	place    map[string]*san.PlaceInfo
	activity map[string]bool
	// readBy / writtenBy count documented links per place name.
	readBy    map[string]int
	writtenBy map[string]int
	// rewardRefs marks every name a reward variable references.
	rewardRefs map[string]bool
	findings   []Finding
}

func newShape(st san.Structure) *shape {
	s := &shape{
		st:         st,
		place:      make(map[string]*san.PlaceInfo, len(st.Places)),
		activity:   make(map[string]bool, len(st.Activities)),
		readBy:     make(map[string]int),
		writtenBy:  make(map[string]int),
		rewardRefs: make(map[string]bool),
	}
	for i := range st.Places {
		s.place[st.Places[i].Name] = &st.Places[i]
	}
	for _, act := range st.Activities {
		s.activity[act.Name] = true
		for _, l := range act.Links {
			switch l.Kind {
			case san.LinkInput:
				s.readBy[l.Place]++
			case san.LinkOutput:
				s.writtenBy[l.Place]++
			}
		}
	}
	for _, r := range st.Rewards {
		for _, ref := range r.Refs {
			s.rewardRefs[ref] = true
		}
		if r.Activity != "" {
			s.rewardRefs[r.Activity] = true
		}
	}
	return s
}

// check runs every shape check and returns the findings. The
// dead-activity fixpoint runs only when deadFixpoint is set, i.e. when
// reachability gave no exact verdict.
func (s *shape) check(deadFixpoint bool, disabled map[string]bool) []Finding {
	s.checkCaseWeights()
	s.checkLinks()
	s.checkPlaceFlow()
	if deadFixpoint {
		s.checkDeadActivities(disabled)
	}
	s.checkInstantCycles()
	s.checkRewardRefs()
	return s.findings
}

func (s *shape) report(check string, sev Severity, component, format string, args ...any) {
	s.findings = append(s.findings, Finding{
		Check:     check,
		Severity:  sev,
		Component: component,
		Message:   fmt.Sprintf(format, args...),
	})
}

// submodelOf returns the component's submodel (the prefix before the first
// '/'), or "" for unqualified names.
func submodelOf(name string) string {
	if sub, _, found := strings.Cut(name, "/"); found {
		return sub
	}
	return ""
}

// checkCaseWeights verifies that every multi-case activity's weights,
// evaluated under the initial marking, are non-negative, not all zero, and
// sum to 1 (case weights are the paper's case probabilities; the runtime
// normalizes them, but a sum away from 1 almost always means a forgotten
// case or a typo).
func (s *shape) checkCaseWeights() {
	for _, act := range s.st.Activities {
		if len(act.Cases) < 2 {
			continue // zero or one case: the implicit/sole case always fires
		}
		sum := 0.0
		negative := false
		for i, c := range act.Cases {
			if c.Weight < 0 || math.IsNaN(c.Weight) {
				s.report(CheckCaseWeights, Error, act.Name,
					"case %d has invalid weight %g", i, c.Weight)
				negative = true
				continue
			}
			sum += c.Weight
		}
		switch {
		case negative:
			// Already reported per case.
		case sum <= 0:
			s.report(CheckCaseWeights, Error, act.Name,
				"all %d case weights are zero under the initial marking", len(act.Cases))
		case math.Abs(sum-1) > weightTolerance:
			s.report(CheckCaseWeights, Warning, act.Name,
				"case probabilities sum to %g, not 1", sum)
		}
	}
}

// checkLinks verifies that every documented link targets an existing place
// and that the place is joined into the linking activity's submodel. A
// missing join is reported once per (activity, place), however many links
// the activity has to the place.
func (s *shape) checkLinks() {
	for _, act := range s.st.Activities {
		sub := submodelOf(act.Name)
		unshared := make(map[string]bool)
		for _, l := range act.Links {
			p, ok := s.place[l.Place]
			if !ok {
				s.report(CheckUnknownLink, Error, act.Name,
					"link references unknown place %q", l.Place)
				continue
			}
			if unshared[p.Name] || joinedInto(p, sub) {
				continue
			}
			unshared[p.Name] = true
			s.report(CheckUnsharedJoin, Error, act.Name,
				"uses place %s, which is not shared into submodel %q (declared in %v; missing Join)",
				p.Name, sub, p.Joins)
		}
	}
}

func joinedInto(p *san.PlaceInfo, sub string) bool {
	for _, j := range p.Joins {
		if j == sub {
			return true
		}
	}
	return false
}

// checkPlaceFlow flags places whose documented token flow is one-sided:
// written but never read (tokens accumulate unobserved), or read while
// initially empty and never written (the read can never see a token). It
// also flags places with no links and no reward references at all.
func (s *shape) checkPlaceFlow() {
	for _, p := range s.st.Places {
		reads, writes := s.readBy[p.Name], s.writtenBy[p.Name]
		switch {
		case reads == 0 && writes == 0:
			if !s.rewardRefs[p.Name] {
				s.report(CheckIsolatedPlace, Info, p.Name,
					"no activity links and no reward references; dead state")
			}
		case writes > 0 && reads == 0 && !s.rewardRefs[p.Name]:
			s.report(CheckNeverRead, Warning, p.Name,
				"written by %d activity link(s) but never read and not referenced by any reward", writes)
		case reads > 0 && writes == 0 && !p.Extended && p.Initial == 0:
			s.report(CheckNeverWritten, Warning, p.Name,
				"read by %d activity link(s) but initially empty and never written", reads)
		}
	}
}

// requiredInputs returns the counted places an activity needs tokens in
// before it can complete, per its documented input arcs (Tokens > 0).
// Read-only links (Tokens == 0, e.g. zero tests) and extended places do not
// gate enabling in this approximation.
func (s *shape) requiredInputs(act san.ActivityInfo) []string {
	var req []string
	for _, l := range act.Links {
		if l.Kind != san.LinkInput || l.Tokens <= 0 {
			continue
		}
		if p, ok := s.place[l.Place]; ok && !p.Extended {
			req = append(req, l.Place)
		}
	}
	return req
}

// checkDeadActivities computes a reachability fixpoint over the documented
// arcs: a place is potentially markable if it starts marked or some
// potentially fireable activity writes it; an activity is potentially
// fireable if every input arc's place is potentially markable. Activities
// outside the fixpoint can never be enabled under the initial marking —
// the approximation ignores token counts and opaque predicates, so it
// over-approximates enabling and never flags a live activity. Disabled
// activities still propagate but are never reported.
func (s *shape) checkDeadActivities(disabled map[string]bool) {
	marked := make(map[string]bool, len(s.st.Places))
	for _, p := range s.st.Places {
		if p.Extended || p.Initial > 0 {
			marked[p.Name] = true
		}
	}
	fireable := make(map[string]bool, len(s.st.Activities))
	for changed := true; changed; {
		changed = false
		for _, act := range s.st.Activities {
			if fireable[act.Name] || !allMarked(s.requiredInputs(act), marked) {
				continue
			}
			fireable[act.Name] = true
			changed = true
			for _, l := range act.Links {
				if l.Kind == san.LinkOutput {
					marked[l.Place] = true
				}
			}
		}
	}
	for _, act := range s.st.Activities {
		if fireable[act.Name] || disabled[act.Name] {
			continue
		}
		var unreachable []string
		for _, need := range s.requiredInputs(act) {
			if !marked[need] {
				unreachable = append(unreachable, need)
			}
		}
		sort.Strings(unreachable)
		s.report(CheckDeadActivity, Warning, act.Name,
			"can never be enabled under the initial marking (unreachable input tokens: %s)",
			strings.Join(unreachable, ", "))
	}
}

func allMarked(places []string, marked map[string]bool) bool {
	for _, p := range places {
		if !marked[p] {
			return false
		}
	}
	return true
}

// checkInstantCycles finds token cycles among instantaneous activities:
// activity A feeds B when A writes a counted place B consumes. A strongly
// connected component with an internal edge can regenerate its own enabling
// tokens within a single stabilization pass and therefore livelock it.
func (s *shape) checkInstantCycles() {
	var nodes []string
	index := make(map[string]int)
	consumers := make(map[string][]int) // place -> instantaneous consumers
	for _, act := range s.st.Activities {
		if act.Kind != san.Instantaneous {
			continue
		}
		index[act.Name] = len(nodes)
		for _, need := range s.requiredInputs(act) {
			consumers[need] = append(consumers[need], len(nodes))
		}
		nodes = append(nodes, act.Name)
	}
	edges := make([][]int, len(nodes))
	for _, act := range s.st.Activities {
		if act.Kind != san.Instantaneous {
			continue
		}
		from := index[act.Name]
		for _, l := range act.Links {
			if l.Kind == san.LinkOutput {
				edges[from] = append(edges[from], consumers[l.Place]...)
			}
		}
	}
	for _, scc := range stronglyConnected(edges) {
		cyclic := len(scc) > 1
		for _, to := range edges[scc[0]] {
			cyclic = cyclic || to == scc[0] // self-loop
		}
		if !cyclic {
			continue
		}
		names := make([]string, len(scc))
		for i, n := range scc {
			names[i] = nodes[n]
		}
		sort.Strings(names)
		s.report(CheckInstantCycle, Warning, names[0],
			"instantaneous activities form a token cycle that could livelock stabilization: %s",
			strings.Join(names, ", "))
	}
}

// checkRewardRefs verifies every documented reward reference names an
// existing place or activity.
func (s *shape) checkRewardRefs() {
	for _, r := range s.st.Rewards {
		for _, ref := range r.Refs {
			if _, ok := s.place[ref]; ok || s.activity[ref] {
				continue
			}
			s.report(CheckRewardRef, Error, r.Name,
				"references unknown place or activity %q", ref)
		}
	}
}

// stronglyConnected returns the strongly connected components of the graph
// (Tarjan's algorithm, iterative), each as a slice of node indices.
func stronglyConnected(edges [][]int) [][]int {
	n := len(edges)
	const unvisited = -1
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = unvisited
	}
	var (
		counter int
		stack   []int
		sccs    [][]int
	)
	type frame struct {
		node, edge int
	}
	for start := 0; start < n; start++ {
		if indexOf[start] != unvisited {
			continue
		}
		work := []frame{{node: start}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.node
			if f.edge == 0 {
				indexOf[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.edge < len(edges[v]) {
				w := edges[v][f.edge]
				f.edge++
				if indexOf[w] == unvisited {
					work = append(work, frame{node: w})
					advanced = true
					break
				}
				if onStack[w] && indexOf[w] < low[v] {
					low[v] = indexOf[w]
				}
			}
			if advanced {
				continue
			}
			// All edges explored: close the frame.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == indexOf[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
