package config

import (
	"strings"
	"testing"

	"vcpusim/internal/fastsim"
)

// FuzzParseConfig asserts experiment parsing never panics and that every
// accepted experiment yields a buildable system configuration and
// scheduler factory, and builds a fast engine without panicking —
// Parse's own postconditions, so a crash or violation here is a real bug,
// not fuzz noise.
func FuzzParseConfig(f *testing.F) {
	f.Add(validJSON)
	f.Add(`{"pcpus": 1, "timeslice": 10, "scheduler": {"name": "RRS"},
		"vms": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 3}}]}`)
	f.Add(`{"pcpus": 2, "timeslice": 30, "engine": "san",
		"scheduler": {"name": "SCS"},
		"vms": [{"vcpus": 2, "load": {"dist": "uniform", "low": 1, "high": 10}, "syncEveryN": 5}],
		"faults": [{"name": "c", "kind": "pcpu_crash", "pcpu": 0, "at": 100,
			"duration": {"dist": "deterministic", "value": 50}}]}`)
	f.Add(`{"pcpus": 2, "timeslice": 30,
		"scheduler": {"name": "Credit", "weights": {"0": 2, "1": 1}},
		"vms": [{"vcpus": 1, "load": {"dist": "empirical", "values": [1, 2], "weights": [0.5, 0.5]},
			"syncKind": "spinlock", "syncProbabilistic": true, "syncEveryN": 3},
		       {"vcpus": 1, "load": {"dist": "lognormal", "mu": 1, "sigma": 0.5}}]}`)
	f.Add(`{"pcpus": 0}`)
	f.Add(`{"pcpus": 1e99, "timeslice": -1}`)
	f.Add(`{"pcpus": 100000000000000000, "timeslice": 10, "scheduler": {"name": "RRS"},
		"vms": [{"vcpus": 1, "load": {"dist": "deterministic", "value": 3}}]}`)
	f.Add(`{"pcpus": 1, "timeslice": 10, "scheduler": {"name": "RRS"},
		"vms": [{"vcpus": 1, "load": {"dist": "erlang", "rate": 1, "k": 4611686018427387904}}]}`)
	f.Add(`{"pcpus": 1, "timeslice": 10, "scheduler": {"name": "RRS"},
		"vms": [{"vcpus": 1, "load": {"dist": "erlang", "rate": 1, "k": 1025}}]}`)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, data string) {
		exp, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := exp.SystemConfig()
		if err != nil {
			t.Fatalf("accepted experiment has unbuildable system config: %v", err)
		}
		factory, err := exp.SchedulerFactory()
		if err != nil {
			t.Fatalf("accepted experiment has unbuildable scheduler: %v", err)
		}
		// Fault plans run only on the SAN engine; the fast engine still
		// sizes every per-PCPU and per-VCPU array from the same counts.
		cfg.Faults = nil
		if _, err := fastsim.New(cfg, factory(), exp.Seed); err != nil {
			t.Errorf("accepted experiment does not build on the fast engine: %v", err)
		}
		if exp.Faults != nil && exp.Engine != "san" {
			t.Error("accepted a fault plan outside the SAN engine")
		}
	})
}
