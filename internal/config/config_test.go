package config

import (
	"strings"
	"testing"

	"vcpusim/internal/rng"
	"vcpusim/internal/workload"
)

const validJSON = `{
  "pcpus": 4,
  "timeslice": 30,
  "scheduler": {"name": "RCS", "enterSkew": 10, "exitSkew": 5},
  "horizonTicks": 5000,
  "seed": 7,
  "engine": "fast",
  "replications": {"min": 5, "max": 20, "level": 0.95, "relWidth": 0.1},
  "vms": [
    {"name": "web", "vcpus": 2, "load": {"dist": "uniform", "low": 1, "high": 10}, "syncEveryN": 5},
    {"vcpus": 1, "load": {"dist": "exponential", "rate": 0.2}}
  ]
}`

func TestParseValid(t *testing.T) {
	exp, err := Parse(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := exp.SystemConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PCPUs != 4 || cfg.Timeslice != 30 || len(cfg.VMs) != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.VMs[0].Name != "web" || cfg.VMs[0].VCPUs != 2 || cfg.VMs[0].Workload.SyncEveryN != 5 {
		t.Fatalf("vm0 = %+v", cfg.VMs[0])
	}
	factory, err := exp.SchedulerFactory()
	if err != nil {
		t.Fatal(err)
	}
	if got := factory().Name(); got != "RCS" {
		t.Fatalf("scheduler = %q", got)
	}
	opts := exp.SimOptions()
	if opts.MinReps != 5 || opts.MaxReps != 20 || opts.Seed != 7 {
		t.Fatalf("sim options = %+v", opts)
	}
}

func TestParseDefaults(t *testing.T) {
	exp, err := Parse(strings.NewReader(`{
	  "pcpus": 1, "timeslice": 10,
	  "scheduler": {"name": "RRS"},
	  "vms": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 3}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if exp.HorizonTicks != 20000 || exp.Seed != 1 || exp.Engine != "fast" {
		t.Fatalf("defaults = %+v", exp)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"garbage", `{`},
		{"unknown field", `{"pcpus":1,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}],"bogus":1}`},
		{"bad engine", `{"pcpus":1,"timeslice":10,"engine":"turbo","scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"unknown scheduler", `{"pcpus":1,"timeslice":10,"scheduler":{"name":"XYZ"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"no vms", `{"pcpus":1,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[]}`},
		{"bad dist", `{"pcpus":1,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"weird"}}]}`},
		{"zero timeslice", `{"pcpus":1,"timeslice":0,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"faults on fast engine", `{"pcpus":1,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}],"faults":[{"name":"c","kind":"pcpu_crash","pcpu":0,"at":100}]}`},
		{"pcpus above the limit", `{"pcpus":65,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"huge pcpus", `{"pcpus":100000000000000000,"timeslice":10,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"removed contract", `{"pcpus":1,"timeslice":10,"contract":2,"scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}]}`},
		{"invalid fault plan", `{"pcpus":1,"timeslice":10,"engine":"san","scheduler":{"name":"RRS"},"vms":[{"vcpus":1,"load":{"dist":"deterministic","value":3}}],"faults":[{"name":"c","kind":"pcpu_crash","pcpu":9,"at":100}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.json)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestParseFaultPlan(t *testing.T) {
	exp, err := Parse(strings.NewReader(`{
	  "pcpus": 2, "timeslice": 30, "engine": "san",
	  "scheduler": {"name": "SCS"},
	  "vms": [{"vcpus": 2, "load": {"dist": "uniform", "low": 1, "high": 10}, "syncEveryN": 5}],
	  "faults": [{"name": "crash1", "kind": "pcpu_crash", "pcpu": 1, "at": 500,
	              "duration": {"dist": "deterministic", "value": 200}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Faults == nil || len(exp.Faults.Faults) != 1 {
		t.Fatalf("faults = %+v", exp.Faults)
	}
	cfg, err := exp.SystemConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults != exp.Faults {
		t.Error("SystemConfig did not thread the fault plan through")
	}
}

func TestDistributionBuild(t *testing.T) {
	good := []Distribution{
		{Dist: "deterministic", Value: 5},
		{Dist: "constant", Value: 5},
		{Dist: "uniform", Low: 1, High: 2},
		{Dist: "exponential", Rate: 0.5},
		{Dist: "erlang", K: 2, Rate: 0.5},
		{Dist: "erlang", K: rng.MaxErlangK, Rate: 0.5},
		{Dist: "normal", Mu: 5, Sigma: 1},
		{Dist: "lognormal", Mu: 1, Sigma: 0.5},
		{Dist: "geometric", P: 0.3},
		{Dist: "empirical", Values: []float64{1, 2}, Weights: []float64{1, 1}},
		{Dist: "UNIFORM", Low: 0, High: 1}, // case-insensitive
	}
	for _, d := range good {
		if _, err := d.Build(); err != nil {
			t.Errorf("%+v: %v", d, err)
		}
	}
	bad := []Distribution{
		{Dist: "uniform", Low: 2, High: 2},
		{Dist: "exponential", Rate: 0},
		{Dist: "erlang", K: 0, Rate: 1},
		{Dist: "erlang", K: rng.MaxErlangK + 1, Rate: 1},
		{Dist: "erlang", K: 1 << 62, Rate: 1}, // a draw would sum 2^62 exponentials
		{Dist: "normal", Sigma: -1},
		{Dist: "lognormal", Sigma: -1},
		{Dist: "geometric", P: 0},
		{Dist: "geometric", P: 1.5},
		{Dist: "empirical"},
		{Dist: "nope"},
	}
	for _, d := range bad {
		if _, err := d.Build(); err == nil {
			t.Errorf("%+v: expected error", d)
		}
	}
}

func TestParseCreditWeights(t *testing.T) {
	exp, err := Parse(strings.NewReader(`{
	  "pcpus": 2, "timeslice": 10,
	  "scheduler": {"name": "Credit", "weights": {"0": 3, "1": 1}},
	  "vms": [
	    {"vcpus": 1, "load": {"dist": "deterministic", "value": 3}},
	    {"vcpus": 1, "load": {"dist": "deterministic", "value": 3}}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	factory, err := exp.SchedulerFactory()
	if err != nil {
		t.Fatal(err)
	}
	if got := factory().Name(); got != "Credit" {
		t.Fatalf("scheduler = %q", got)
	}
}

func TestParseSyncKind(t *testing.T) {
	exp, err := Parse(strings.NewReader(`{
	  "pcpus": 2, "timeslice": 10,
	  "scheduler": {"name": "RRS"},
	  "vms": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 3}, "syncEveryN": 2, "syncKind": "spinlock"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := exp.SystemConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VMs[0].Workload.SyncKind != workload.SyncSpinlock {
		t.Fatalf("sync kind = %v, want spinlock", cfg.VMs[0].Workload.SyncKind)
	}
	if _, err := Parse(strings.NewReader(`{
	  "pcpus": 2, "timeslice": 10,
	  "scheduler": {"name": "RRS"},
	  "vms": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 3}, "syncKind": "mutex"}]
	}`)); err == nil {
		t.Fatal("unknown sync kind accepted")
	}
}
