// Package faults implements deterministic fault-injection campaigns for
// dependability evaluation: a declarative, JSON-configurable Plan of fault
// events (PCPU fail-stop and restart, PCPU slowdown, VCPU stall, transient
// scheduler misdecision) and an Injector that realizes the plan as a SAN
// submodel — timed injection/recovery activities gated by per-target fault
// marker places — attached to a running system model.
//
// Determinism contract: every injection and recovery time is either a
// deterministic constant or sampled from the replication's rng.Source by
// the SAN executive's standard activation path (timed-activity delay
// sampling in definition order), so a fault schedule is a pure function of
// the replication seed. Same-seed runs — fresh or pooled through
// san.Instance.Reset — replay the campaign bit-identically, and with no
// plan attached the model contains no fault activity at all, leaving the
// RNG draw order and every healthy-run metric untouched.
package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"vcpusim/internal/rng"
)

// Fault kinds.
const (
	// KindPCPUCrash is a fail-stop PCPU fault: the PCPU goes down, its
	// occupant VCPU is evicted and loses the progress of its in-flight
	// workload (the work must be redone after recovery), and no VCPU can
	// be assigned until the PCPU restarts.
	KindPCPUCrash = "pcpu_crash"
	// KindPCPUSlow throttles a PCPU: VCPUs scheduled on it progress at
	// Factor of full speed (a frequency-throttle / co-tenant interference
	// model).
	KindPCPUSlow = "pcpu_slow"
	// KindVCPUStall stalls one VCPU: it keeps its PCPU but makes no
	// progress, the lock-holder-preemption storm generator when the
	// stalled VCPU holds a spinlock.
	KindVCPUStall = "vcpu_stall"
	// KindMisdecision opens a transient scheduler-misdecision window:
	// while active, the scheduling function's decisions are discarded.
	KindMisdecision = "sched_misdecision"
)

// Dist is the JSON form of a fault-timing distribution. It is a minimal
// subset of the config package's distribution families (which cannot be
// imported here without a cycle): deterministic, uniform, exponential,
// and erlang cover injection and repair processes.
type Dist struct {
	// Dist selects the family: "deterministic", "uniform", "exponential",
	// or "erlang".
	Dist string `json:"dist"`
	// Value is the constant for "deterministic".
	Value float64 `json:"value,omitempty"`
	// Low/High bound "uniform".
	Low  float64 `json:"low,omitempty"`
	High float64 `json:"high,omitempty"`
	// Rate parameterizes "exponential" and "erlang".
	Rate float64 `json:"rate,omitempty"`
	// K is the shape of "erlang", 1 to rng.MaxErlangK.
	K int `json:"k,omitempty"`
}

// Build constructs the rng.Distribution.
func (d Dist) Build() (rng.Distribution, error) {
	switch strings.ToLower(d.Dist) {
	case "deterministic", "constant":
		if d.Value < 0 {
			return nil, fmt.Errorf("faults: deterministic needs a non-negative value, got %g", d.Value)
		}
		return rng.Deterministic{Value: d.Value}, nil
	case "uniform":
		if !(d.Low < d.High) || d.Low < 0 {
			return nil, fmt.Errorf("faults: uniform needs 0 <= low < high, got [%g, %g)", d.Low, d.High)
		}
		return rng.Uniform{Low: d.Low, High: d.High}, nil
	case "exponential":
		if d.Rate <= 0 {
			return nil, fmt.Errorf("faults: exponential needs a positive rate, got %g", d.Rate)
		}
		return rng.Exponential{Rate: d.Rate}, nil
	case "erlang":
		if d.Rate <= 0 || d.K < 1 || d.K > rng.MaxErlangK {
			return nil, fmt.Errorf("faults: erlang needs a positive rate and 1 <= k <= %d, got rate=%g k=%d", rng.MaxErlangK, d.Rate, d.K)
		}
		return rng.Erlang{K: d.K, Rate: d.Rate}, nil
	default:
		return nil, fmt.Errorf("faults: unknown distribution %q", d.Dist)
	}
}

// Spec is one fault event source of a campaign.
type Spec struct {
	// Name labels the fault in metrics, spans, and SAN component names.
	Name string `json:"name"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// PCPU targets KindPCPUCrash / KindPCPUSlow.
	PCPU int `json:"pcpu,omitempty"`
	// VCPU targets KindVCPUStall (global VCPU index).
	VCPU int `json:"vcpu,omitempty"`
	// Factor is the throttled progress fraction in (0, 1) for
	// KindPCPUSlow.
	Factor float64 `json:"factor,omitempty"`
	// At injects once at a fixed simulation time (ticks). Exactly one of
	// At and Every must be set.
	At float64 `json:"at,omitempty"`
	// Every draws inter-arrival times between injections from a
	// distribution (sampled from the replication RNG).
	Every *Dist `json:"every,omitempty"`
	// Duration draws the fault's active time before recovery; nil means
	// the fault is permanent (no recovery activity is built).
	Duration *Dist `json:"duration,omitempty"`
	// Count caps the number of injections; 0 means 1. Counts above 1
	// require Every and Duration (each next injection waits for the
	// previous recovery).
	Count int `json:"count,omitempty"`
	// Disabled keeps the spec in the model structure but disables its
	// injection activity (via the Instance activity enable/disable API),
	// so campaign variants toggle without recompiling.
	Disabled bool `json:"disabled,omitempty"`
}

// EffectiveCount returns the injection cap (Count, defaulting to 1).
func (s Spec) EffectiveCount() int {
	if s.Count == 0 {
		return 1
	}
	return s.Count
}

// Plan is a declarative fault-injection campaign.
type Plan struct {
	Faults []Spec `json:"faults"`
}

// UnmarshalJSON accepts either the object form {"faults": [...]} used by
// standalone plan files or a bare spec array [...], the compact form for
// embedding a campaign in an experiment configuration. Unknown fields are
// rejected in both forms.
func (p *Plan) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if len(trimmed) > 0 && trimmed[0] == '[' {
		return dec.Decode(&p.Faults)
	}
	// A local alias drops the Unmarshaler method, avoiding recursion.
	type alias Plan
	var a alias
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*p = Plan(a)
	return nil
}

// Parse reads a Plan from JSON, rejecting unknown fields.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: decode plan: %w", err)
	}
	return &p, nil
}

// validName reports whether a spec name is safe to embed in SAN component
// and metric names.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// markerKey identifies the fault marker a spec drives; two specs may not
// share one (their activities would race on the marker token).
func (s Spec) markerKey() string {
	switch s.Kind {
	case KindPCPUCrash:
		return fmt.Sprintf("down/%d", s.PCPU)
	case KindPCPUSlow:
		return fmt.Sprintf("slow/%d", s.PCPU)
	case KindVCPUStall:
		return fmt.Sprintf("stall/%d", s.VCPU)
	default:
		return "misdecision"
	}
}

// Validate checks the plan against a system with the given PCPU and VCPU
// counts.
func (p *Plan) Validate(pcpus, vcpus int) error {
	if len(p.Faults) == 0 {
		return fmt.Errorf("faults: plan has no fault specs")
	}
	seenName := make(map[string]bool, len(p.Faults))
	seenMarker := make(map[string]string, len(p.Faults))
	for i, s := range p.Faults {
		if !validName(s.Name) {
			return fmt.Errorf("faults: spec %d: name %q must be non-empty [A-Za-z0-9_-]", i, s.Name)
		}
		if seenName[s.Name] {
			return fmt.Errorf("faults: duplicate spec name %q", s.Name)
		}
		seenName[s.Name] = true
		switch s.Kind {
		case KindPCPUCrash, KindPCPUSlow:
			if s.PCPU < 0 || s.PCPU >= pcpus {
				return fmt.Errorf("faults: spec %q targets PCPU %d outside [0, %d)", s.Name, s.PCPU, pcpus)
			}
		case KindVCPUStall:
			if s.VCPU < 0 || s.VCPU >= vcpus {
				return fmt.Errorf("faults: spec %q targets VCPU %d outside [0, %d)", s.Name, s.VCPU, vcpus)
			}
		case KindMisdecision:
		default:
			return fmt.Errorf("faults: spec %q has unknown kind %q", s.Name, s.Kind)
		}
		if s.Kind == KindPCPUSlow {
			if !(s.Factor > 0 && s.Factor < 1) {
				return fmt.Errorf("faults: spec %q needs factor in (0, 1), got %g", s.Name, s.Factor)
			}
		} else if s.Factor != 0 {
			return fmt.Errorf("faults: spec %q: factor applies to %s only", s.Name, KindPCPUSlow)
		}
		if prev, dup := seenMarker[s.markerKey()]; dup {
			return fmt.Errorf("faults: specs %q and %q drive the same fault target", prev, s.Name)
		}
		seenMarker[s.markerKey()] = s.Name
		switch {
		case s.At > 0 && s.Every != nil:
			return fmt.Errorf("faults: spec %q sets both at and every", s.Name)
		case s.At <= 0 && s.Every == nil:
			return fmt.Errorf("faults: spec %q needs at > 0 or an every distribution", s.Name)
		case s.At < 0:
			return fmt.Errorf("faults: spec %q has negative injection time %g", s.Name, s.At)
		}
		if s.Every != nil {
			if _, err := s.Every.Build(); err != nil {
				return fmt.Errorf("faults: spec %q every: %w", s.Name, err)
			}
		}
		if s.Duration != nil {
			if _, err := s.Duration.Build(); err != nil {
				return fmt.Errorf("faults: spec %q duration: %w", s.Name, err)
			}
		}
		if s.Count < 0 {
			return fmt.Errorf("faults: spec %q has negative count %d", s.Name, s.Count)
		}
		if s.EffectiveCount() > 1 {
			if s.Every == nil {
				return fmt.Errorf("faults: spec %q needs an every distribution for count %d", s.Name, s.Count)
			}
			if s.Duration == nil {
				return fmt.Errorf("faults: spec %q needs a duration for count %d (repeat injections wait for recovery)", s.Name, s.Count)
			}
		}
	}
	return nil
}

// Metric names. Per-spec impulse rewards are registered by the Injector;
// the aggregate and derived names are filled in by the replication
// executive (core.Worker) from the per-spec values, because impulse-reward
// names must be unique per activity.

// Rate rewards registered by the Injector.
const (
	// DegradedMetric is the fraction of time any fault is active.
	DegradedMetric = "fault/degraded"
	// CapacityMetric is the time-averaged healthy PCPU capacity fraction
	// (down PCPUs contribute 0, throttled ones their factor).
	CapacityMetric = "fault/capacity"
)

// Ingredients registered by the core builder when a plan is attached, and
// the derived dependability metrics computed from them per replication.
const (
	// AvailDegradedMetric integrates VCPU availability only while the
	// system is degraded (an ingredient of AvailUnderFaultsMetric).
	AvailDegradedMetric = "fault/avail_degraded"
	// AvailUnderFaultsMetric is mean VCPU availability conditioned on the
	// system being degraded: AvailDegradedMetric / DegradedMetric.
	AvailUnderFaultsMetric = "fault/avail_under"
	// RecoveryTicksMetric sums, over every PCPU restart, the ticks from
	// the restart until the scheduler re-seats a VCPU on the PCPU.
	RecoveryTicksMetric = "fault/recovery_ticks"
	// ReseatsMetric counts those post-restart re-seatings.
	ReseatsMetric = "fault/reseats"
	// MTTRMetric is the mean scheduler recovery time after a PCPU
	// restart: RecoveryTicksMetric / ReseatsMetric.
	MTTRMetric = "fault/mttr"
	// MisdecisionsMetric counts scheduling decisions discarded by fault
	// handling: all decisions inside a misdecision window, plus
	// assignments targeting a failed PCPU.
	MisdecisionsMetric = "fault/misdecisions"
	// InjectsMetric / RecoversMetric are the campaign-wide injection and
	// recovery counts (sums of the per-spec impulse rewards).
	InjectsMetric  = "fault/injects"
	RecoversMetric = "fault/recovers"
	// WorkLostMetric is the total workload progress destroyed by PCPU
	// crashes (ticks of processing that must be redone, the co-schedule
	// abort cost).
	WorkLostMetric = "fault/work_lost"
)

// SpecInjectsMetric names the impulse reward counting injections of one
// spec.
func SpecInjectsMetric(name string) string { return "fault/injects/" + name }

// SpecRecoversMetric names the impulse reward counting recoveries of one
// spec.
func SpecRecoversMetric(name string) string { return "fault/recovers/" + name }

// SpecWorkLostMetric names the impulse reward accumulating the workload
// progress destroyed by one crash spec's injections.
func SpecWorkLostMetric(name string) string { return "fault/work_lost/" + name }
