// Package sanalyze statically verifies SAN models before any replication
// runs, substituting for the model checks the closed-source Möbius tool
// performs on composed models. It works on the plain-data san.Structure
// snapshot a model exports (documented arcs, join relations, initial
// markings, case weights, reward references) and reports everything as
// one list of findings:
//
//   - Shape checks flag documentation and modeling defects: case weights
//     that do not sum to 1, links to unknown or unjoined places, one-sided
//     or isolated places, dangling reward references, and instantaneous
//     token cycles that could livelock stabilization.
//   - P- and T-invariants are computed from the documented incidence
//     matrix with the Farkas variant of integer Gaussian elimination;
//     semipositive P-invariants certify boundedness and conservation of
//     token populations (PCPU count, fault budgets, lock tokens).
//   - Per-place boundedness verdicts combine several certificates:
//     invariant cover, constant/non-increasing incidence rows, a drain
//     certificate for clock-tick places emptied by an instantaneous
//     activity, declared (runtime-enforced) capacities, and — on pure-arc
//     nets — exact bounds from explicit-state reachability.
//   - Bounded explicit-state reachability explores pure-arc nets under a
//     deterministic state budget with canonical marking hashing. It
//     detects deadlocks, dead activities, and unbounded places (via
//     Karp–Miller strict domination along the search path) and prints
//     counterexamples as firing sequences. Where it cannot complete, a
//     documented-arc fixpoint over-approximates enabling and flags the
//     activities it can never reach.
//   - Declared conservation laws (san.Model.DeclareConservation) are
//     verified against the incidence matrix: every documented activity
//     effect must be orthogonal to the declared weight vector.
//   - A dynamic conformance check (Conformance) replays an instance with
//     firing hooks and verifies that gate code changes markings exactly
//     as the documented links promise, closing the gap between opaque
//     gate closures and the structural model the other passes reason on.
//
// Gate code is opaque Go, so the engine is honest about what it can
// prove: facts derived from counted arcs are exact; facts derived from
// LinkN declarations or capacities hold provided the conformance check
// (which is part of `vcpusim vet`) passes.
package sanalyze

import (
	"fmt"
	"sort"

	"vcpusim/internal/san"
)

// Default analysis budgets. All budgets are deterministic (state and
// firing counts, never wall-clock time) so reports are reproducible.
const (
	DefaultMaxStates    = 1 << 16
	DefaultMaxFirings   = 1 << 20
	DefaultStabilizeCap = 4096
	maxInvariantRows    = 512
)

// Options configures an analysis run.
type Options struct {
	// Disabled lists activities excluded from the run (the engine-level
	// san.Instance.SetActivityEnabled set, e.g. a fault plan's dormant
	// injectors). Reachability never fires them and never reports them
	// dead; certificates that depend on an activity being able to fire
	// skip disabled activities.
	Disabled []string
	// MaxStates bounds the number of distinct markings reachability
	// explores; 0 means DefaultMaxStates.
	MaxStates int
	// MaxFirings bounds the total number of firings simulated across the
	// whole exploration; 0 means DefaultMaxFirings.
	MaxFirings int
	// StabilizeCap bounds a single instantaneous-firing chain, mirroring
	// the runtime livelock guard; 0 means DefaultStabilizeCap.
	StabilizeCap int
}

// Severity grades a finding.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota + 1
	Warning
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Check identifiers, stable across releases for machine consumers.
const (
	// Shape checks over the documented structure.
	CheckCaseWeights   = "case-weights"        // weights negative, all zero, or not summing to 1
	CheckUnknownLink   = "unknown-link"        // a link names a place the model lacks
	CheckUnsharedJoin  = "unshared-join"       // a place used outside its joined submodels
	CheckNeverRead     = "place-never-read"    // written, never read, no reward reference
	CheckNeverWritten  = "place-never-written" // initially empty, read, never written
	CheckIsolatedPlace = "isolated-place"      // no links and no reward references
	CheckRewardRef     = "reward-ref"          // a reward names an unknown place or activity
	CheckInstantCycle  = "instant-cycle"       // instantaneous activities feed each other

	// Proof-level checks.
	CheckUnbounded       = "unbounded-place"
	CheckBoundUnproven   = "bound-unproven"
	CheckDeadlock        = "deadlock"
	CheckDeadlockUnknown = "deadlock-unproven"
	CheckDeadActivity    = "dead-activity"
	CheckConservation    = "conservation"
	CheckLivelock        = "instant-livelock"
	CheckNegativeMarking = "negative-marking"
	CheckConformance     = "conformance"
	CheckBudget          = "analysis-budget"
)

// Finding is one structural problem (or caveat) detected by the engine.
type Finding struct {
	Check     string   `json:"check"`
	Severity  Severity `json:"-"`
	Component string   `json:"component"`
	Message   string   `json:"message"`
	// Trace is a counterexample firing sequence, when the finding came
	// out of reachability exploration.
	Trace []string `json:"trace,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s: %s", f.Severity, f.Check, f.Component, f.Message)
	if len(f.Trace) > 0 {
		s += fmt.Sprintf("\n    counterexample: %s", renderTrace(f.Trace))
	}
	return s
}

// renderTrace prints a firing sequence, eliding the middle of very long
// ones so reports stay readable.
func renderTrace(trace []string) string {
	const keep = 24
	if len(trace) <= keep {
		return joinArrows(trace)
	}
	head := trace[:keep/2]
	tail := trace[len(trace)-keep/2:]
	return fmt.Sprintf("%s → … %d more … → %s", joinArrows(head), len(trace)-keep, joinArrows(tail))
}

func joinArrows(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " → "
		}
		out += n
	}
	return out
}

// PlaceBound is the boundedness verdict for one token place.
type PlaceBound struct {
	Place string `json:"place"`
	// Bound is the proved upper bound on the marking; -1 when no
	// certificate applies.
	Bound int `json:"bound"`
	// Method names the certificate: "constant", "non-increasing",
	// "p-invariant", "drained", "capacity", or "reachability".
	Method string `json:"method,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Invariant is a semipositive P-invariant (or a T-invariant, with
// Weights keyed by activity name). For P-invariants, Value is the
// conserved weighted token sum under the initial marking.
type Invariant struct {
	Weights map[string]int64 `json:"weights"`
	Value   int64            `json:"value,omitempty"`
}

func (iv Invariant) String() string {
	names := make([]string, 0, len(iv.Weights))
	for n := range iv.Weights {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " + "
		}
		if w := iv.Weights[n]; w != 1 {
			out += fmt.Sprintf("%d·%s", w, n)
		} else {
			out += n
		}
	}
	return out
}

// ReachSummary reports what the explicit-state exploration did.
type ReachSummary struct {
	Ran bool `json:"ran"`
	// SkipReason explains why exploration did not run (gate-coupled
	// activities make the net non-executable symbolically).
	SkipReason string `json:"skip_reason,omitempty"`
	States     int    `json:"states,omitempty"`
	Firings    int    `json:"firings,omitempty"`
	// Complete reports that the entire reachability set was explored:
	// no state/firing budget was hit and no unbounded growth was cut.
	Complete bool `json:"complete,omitempty"`
}

// DeadlockVerdict is the model-level deadlock result.
type DeadlockVerdict struct {
	// Status is "deadlock-free", "deadlock", or "unproven".
	Status string `json:"status"`
	// Method is the certificate ("reachability" or "perpetual-activity")
	// when Status is "deadlock-free".
	Method string `json:"method,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Report is the full structural-analysis result for one model.
type Report struct {
	Model      string `json:"model"`
	Places     int    `json:"places"`
	Activities int    `json:"activities"`

	Bounds       []PlaceBound    `json:"bounds"`
	PInvariants  []Invariant     `json:"p_invariants,omitempty"`
	TInvariants  []Invariant     `json:"t_invariants,omitempty"`
	Conservation []string        `json:"conservation,omitempty"` // verified law descriptions
	Deadlock     DeadlockVerdict `json:"deadlock"`
	Reach        ReachSummary    `json:"reachability"`
	// Disabled lists activities excluded from the analysis via Options.
	Disabled []string  `json:"disabled,omitempty"`
	Findings []Finding `json:"findings,omitempty"`
}

// AllBounded reports whether every token place has a proved bound.
func (r *Report) AllBounded() bool {
	for _, b := range r.Bounds {
		if b.Bound < 0 {
			return false
		}
	}
	return true
}

// DeadlockFree reports whether deadlock freedom was proved.
func (r *Report) DeadlockFree() bool { return r.Deadlock.Status == "deadlock-free" }

// Analyze runs every structural pass over a model snapshot.
func Analyze(st san.Structure, opt Options) *Report {
	if opt.MaxStates <= 0 {
		opt.MaxStates = DefaultMaxStates
	}
	if opt.MaxFirings <= 0 {
		opt.MaxFirings = DefaultMaxFirings
	}
	if opt.StabilizeCap <= 0 {
		opt.StabilizeCap = DefaultStabilizeCap
	}
	n := buildNet(st, opt.Disabled)
	r := &Report{
		Model:      st.Name,
		Places:     len(n.places),
		Activities: len(n.acts),
		Disabled:   append([]string(nil), opt.Disabled...),
	}
	sort.Strings(r.Disabled)

	reach := explore(n, opt)
	r.Reach = reach.summary()
	r.Findings = append(r.Findings, reach.findings...)
	// dead-activity: the exact verdict where reachability completed,
	// otherwise the documented-arc fixpoint.
	r.Findings = append(r.Findings, deadFindings(n, reach)...)
	r.Findings = append(r.Findings, newShape(st).check(!reach.complete(), n.disabled)...)

	r.PInvariants, r.TInvariants = invariants(n, r)
	checkConservation(n, st.Conservations, r)
	r.Bounds = boundPlaces(n, r.PInvariants, reach)
	for _, b := range r.Bounds {
		if b.Bound < 0 {
			r.Findings = append(r.Findings, Finding{
				Check:     CheckBoundUnproven,
				Severity:  Warning,
				Component: "place " + b.Place,
				Message:   b.Detail,
			})
		}
	}
	r.Deadlock = deadlockVerdict(n, reach)
	if r.Deadlock.Status == "unproven" {
		r.Findings = append(r.Findings, Finding{
			Check:     CheckDeadlockUnknown,
			Severity:  Warning,
			Component: "model " + st.Name,
			Message:   r.Deadlock.Detail,
		})
	}
	sortFindings(r.Findings)
	return r
}

// AnalyzeModel snapshots and analyzes a live model.
func AnalyzeModel(m *san.Model, opt Options) *Report {
	return Analyze(m.Structure(), opt)
}

// sortFindings orders findings by severity (errors first), then check,
// then component, keeping reports and goldens stable.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Severity != fs[j].Severity {
			return fs[i].Severity > fs[j].Severity
		}
		if fs[i].Check != fs[j].Check {
			return fs[i].Check < fs[j].Check
		}
		return fs[i].Component < fs[j].Component
	})
}
