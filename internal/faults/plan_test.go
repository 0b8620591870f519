package faults

import (
	"strings"
	"testing"

	"vcpusim/internal/rng"
)

const validPlanJSON = `{
  "faults": [
    {"name": "crash1", "kind": "pcpu_crash", "pcpu": 1, "at": 500,
     "duration": {"dist": "deterministic", "value": 200}},
    {"name": "slow0", "kind": "pcpu_slow", "pcpu": 0, "factor": 0.5, "at": 100},
    {"name": "storm", "kind": "vcpu_stall", "vcpu": 2,
     "every": {"dist": "exponential", "rate": 0.01},
     "duration": {"dist": "uniform", "low": 10, "high": 50}, "count": 3},
    {"name": "mis1", "kind": "sched_misdecision", "at": 900,
     "duration": {"dist": "erlang", "rate": 0.1, "k": 2}, "disabled": true}
  ]
}`

func TestParseValidPlan(t *testing.T) {
	p, err := Parse(strings.NewReader(validPlanJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 4 {
		t.Fatalf("got %d specs, want 4", len(p.Faults))
	}
	if err := p.Validate(2, 4); err != nil {
		t.Fatal(err)
	}
	if got := p.Faults[2].EffectiveCount(); got != 3 {
		t.Errorf("storm EffectiveCount = %d, want 3", got)
	}
	if got := p.Faults[0].EffectiveCount(); got != 1 {
		t.Errorf("crash1 EffectiveCount = %d, want 1", got)
	}
	if !p.Faults[3].Disabled {
		t.Error("mis1 should parse as disabled")
	}
}

func TestParseBareArrayForm(t *testing.T) {
	p, err := Parse(strings.NewReader(`[{"name": "c", "kind": "pcpu_crash", "pcpu": 0, "at": 10}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 1 || p.Faults[0].Name != "c" {
		t.Fatalf("plan = %+v", p)
	}
	if _, err := Parse(strings.NewReader(`[{"nope": 1}]`)); err == nil {
		t.Fatal("unknown field in array form accepted")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"faults": [{"name": "x", "kind": "pcpu_crash", "when": 5}]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestParseRejectsMalformedJSON(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"faults": [`)); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

// spec returns a minimal valid one-shot crash spec to mutate per case.
func spec() Spec {
	return Spec{Name: "f1", Kind: KindPCPUCrash, PCPU: 0, At: 100}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Plan)
		want string
	}{
		{"empty plan", func(p *Plan) { p.Faults = nil }, "no fault specs"},
		{"empty name", func(p *Plan) { p.Faults[0].Name = "" }, "name"},
		{"bad name chars", func(p *Plan) { p.Faults[0].Name = "a b" }, "name"},
		{"duplicate name", func(p *Plan) {
			s := spec()
			s.Kind = KindPCPUSlow
			s.Factor = 0.5
			p.Faults = append(p.Faults, s)
		}, "duplicate"},
		{"pcpu out of range", func(p *Plan) { p.Faults[0].PCPU = 2 }, "outside"},
		{"negative pcpu", func(p *Plan) { p.Faults[0].PCPU = -1 }, "outside"},
		{"vcpu out of range", func(p *Plan) {
			p.Faults[0].Kind = KindVCPUStall
			p.Faults[0].VCPU = 4
		}, "outside"},
		{"unknown kind", func(p *Plan) { p.Faults[0].Kind = "meteor" }, "unknown kind"},
		{"slow without factor", func(p *Plan) { p.Faults[0].Kind = KindPCPUSlow }, "factor"},
		{"slow factor one", func(p *Plan) {
			p.Faults[0].Kind = KindPCPUSlow
			p.Faults[0].Factor = 1
		}, "factor"},
		{"factor on crash", func(p *Plan) { p.Faults[0].Factor = 0.5 }, "factor applies"},
		{"same target twice", func(p *Plan) {
			s := spec()
			s.Name = "f2"
			p.Faults = append(p.Faults, s)
		}, "same fault target"},
		{"at and every", func(p *Plan) {
			p.Faults[0].Every = &Dist{Dist: "exponential", Rate: 1}
		}, "both at and every"},
		{"neither at nor every", func(p *Plan) { p.Faults[0].At = 0 }, "needs at > 0"},
		{"bad every dist", func(p *Plan) {
			p.Faults[0].At = 0
			p.Faults[0].Every = &Dist{Dist: "exponential", Rate: -1}
		}, "every"},
		{"bad duration dist", func(p *Plan) {
			p.Faults[0].Duration = &Dist{Dist: "uniform", Low: 5, High: 5}
		}, "duration"},
		{"negative count", func(p *Plan) { p.Faults[0].Count = -1 }, "negative count"},
		{"count without every", func(p *Plan) {
			p.Faults[0].Count = 3
			p.Faults[0].Duration = &Dist{Dist: "deterministic", Value: 10}
		}, "every distribution for count"},
		{"count without duration", func(p *Plan) {
			p.Faults[0].At = 0
			p.Faults[0].Count = 3
			p.Faults[0].Every = &Dist{Dist: "exponential", Rate: 1}
		}, "duration for count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Faults: []Spec{spec()}}
			tc.mut(p)
			err := p.Validate(2, 4)
			if err == nil {
				t.Fatal("invalid plan accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDistBuildErrors(t *testing.T) {
	bad := []Dist{
		{Dist: "deterministic", Value: -1},
		{Dist: "uniform", Low: -1, High: 5},
		{Dist: "uniform", Low: 5, High: 5},
		{Dist: "exponential", Rate: 0},
		{Dist: "erlang", Rate: 1, K: 0},
		{Dist: "erlang", Rate: 1, K: rng.MaxErlangK + 1},
		{Dist: "erlang", Rate: 1, K: 1 << 62}, // a draw would sum 2^62 exponentials
		{Dist: "normal"},
		{Dist: ""},
	}
	for _, d := range bad {
		if _, err := d.Build(); err == nil {
			t.Errorf("Dist %+v accepted", d)
		}
	}
	good := []Dist{
		{Dist: "deterministic", Value: 5},
		{Dist: "constant", Value: 0},
		{Dist: "uniform", Low: 0, High: 1},
		{Dist: "exponential", Rate: 2},
		{Dist: "erlang", Rate: 1, K: 3},
		{Dist: "erlang", Rate: 1, K: rng.MaxErlangK},
	}
	for _, d := range good {
		if _, err := d.Build(); err != nil {
			t.Errorf("Dist %+v rejected: %v", d, err)
		}
	}
}

func TestSpecMetricNames(t *testing.T) {
	if got := SpecInjectsMetric("x"); got != "fault/injects/x" {
		t.Errorf("SpecInjectsMetric = %q", got)
	}
	if got := SpecRecoversMetric("x"); got != "fault/recovers/x" {
		t.Errorf("SpecRecoversMetric = %q", got)
	}
	if got := SpecWorkLostMetric("x"); got != "fault/work_lost/x" {
		t.Errorf("SpecWorkLostMetric = %q", got)
	}
}
