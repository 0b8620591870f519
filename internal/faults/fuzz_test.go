package faults

import (
	"strings"
	"testing"
)

// FuzzParsePlan asserts plan parsing never panics and that every plan that
// both parses and validates round-trips into a buildable set of
// distributions — the invariant Attach relies on to never see a Build
// error for a validated plan.
func FuzzParsePlan(f *testing.F) {
	f.Add(validPlanJSON)
	f.Add(`{"faults": []}`)
	f.Add(`{"faults": [{"name": "a", "kind": "pcpu_crash", "pcpu": 0, "at": 1}]}`)
	f.Add(`{"faults": [{"name": "b", "kind": "pcpu_slow", "pcpu": 1, "factor": 0.5,
		"every": {"dist": "erlang", "rate": 1e300, "k": 2},
		"duration": {"dist": "uniform", "low": 0, "high": 1e-300}, "count": 2}]}`)
	f.Add(`{"faults": [{"name": "c", "kind": "sched_misdecision", "at": 1e308}]}`)
	f.Add(`{"faults": [{"name": "-", "kind": "vcpu_stall", "vcpu": 0, "at": 0.5}]}`)
	f.Add(`{"faults": [{"name": "d", "kind": "pcpu_crash", "pcpu": 0, "count": 2,
		"every": {"dist": "erlang", "rate": 1, "k": 4611686018427387904},
		"duration": {"dist": "erlang", "rate": 1, "k": 1025}}]}`)
	f.Add(`{"faults": null}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, data string) {
		p, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(4, 8); err != nil {
			return
		}
		for i, s := range p.Faults {
			if s.Every != nil {
				if _, err := s.Every.Build(); err != nil {
					t.Errorf("spec %d: validated every does not build: %v", i, err)
				}
			}
			if s.Duration != nil {
				if _, err := s.Duration.Build(); err != nil {
					t.Errorf("spec %d: validated duration does not build: %v", i, err)
				}
			}
			if s.EffectiveCount() < 1 {
				t.Errorf("spec %d: EffectiveCount %d < 1", i, s.EffectiveCount())
			}
		}
	})
}
