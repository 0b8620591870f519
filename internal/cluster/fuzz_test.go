package cluster

import (
	"strings"
	"testing"
)

// FuzzParseTopology asserts topology parsing never panics and that every
// topology that both parses and validates expands into buildable host
// configurations — the invariant New relies on to never see a build
// error for a validated topology (short of duplicate model names).
func FuzzParseTopology(f *testing.F) {
	f.Add(`{"hosts": [{"pcpus": 2, "slots": [{"vcpus": 1, "load": {"dist": "uniform", "low": 1, "high": 5}, "admitted": true}]}]}`)
	f.Add(`[{"pcpus": 1, "count": 3, "slots": [{"vcpus": 2, "load": {"dist": "deterministic", "value": 4}}]}]`)
	f.Add(`{"name": "dc", "placement": "least-loaded", "contract": 1, "horizon": 500, "warmup": 50,
		"hosts": [{"name": "rack", "count": 2, "pcpus": 4, "timeslice": 20,
			"scheduler": {"name": "Credit", "weights": {"0": 2}},
			"slots": [{"vcpus": 2, "load": {"dist": "exponential", "rate": 0.2}, "count": 2, "syncEveryN": 5}]}],
		"arrivals": [{"at": 10, "count": 4, "vcpus": 2}],
		"migration": {"checkEvery": 50, "highUtil": 0.8, "lowUtil": 0.4, "transferDelay": 10}}`)
	f.Add(`{"hosts": [{"pcpus": 1, "slots": [{"vcpus": 1, "load": {"dist": "geometric", "p": 0.5}}],
		"faults": [{"name": "crash", "kind": "pcpu_crash", "pcpu": 0, "at": 100}]}]}`)
	f.Add(`{"hosts": null}`)
	f.Add(`[]`)
	f.Add(`{"hosts": [{"pcpus": 1e9, "slots": [{"vcpus": -1, "load": {"dist": "?"}}]}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		topo, err := ParseTopology(strings.NewReader(data))
		if err != nil {
			return
		}
		// A validated topology must expand cleanly: every host group
		// yields a buildable system config and scheduler factory, and the
		// aggregate counts stay positive.
		for g, hg := range topo.Hosts {
			if _, err := hg.systemConfig(); err != nil {
				t.Errorf("host group %d: validated topology does not expand: %v", g, err)
			}
			if _, err := hg.schedulerFactory(); err != nil {
				t.Errorf("host group %d: validated scheduler does not build: %v", g, err)
			}
		}
		if topo.NumHosts() < 1 || topo.TotalVCPUs() < 1 {
			t.Errorf("validated topology has %d hosts / %d VCPUs", topo.NumHosts(), topo.TotalVCPUs())
		}
	})
}
