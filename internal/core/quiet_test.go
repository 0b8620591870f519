package core

import (
	"reflect"
	"testing"

	"vcpusim/internal/faults"
	"vcpusim/internal/san"
)

// TestQuietPlaces pins which places the compiled program marks quiet —
// no dependent activity, reward or projection, so writes skip the dirty
// touch. In the healthy Figure 8 system those are the hypervisor-side
// host states, the timestamp and the PCPU count. Under a pcpu_crash plan
// the fault's injection predicate reads the host states, so they must
// stop being quiet: in both systems no place an enabling predicate or a
// rate reward reads may be quiet.
func TestQuietPlaces(t *testing.T) {
	fig8 := SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []VMConfig{
			{VCPUs: 2, Workload: wl()},
			{VCPUs: 1, Workload: wl()},
			{VCPUs: 1, Workload: wl()},
		},
	}
	crash := fig8
	crash.Faults = &faults.Plan{Faults: []faults.Spec{
		{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 120,
			Duration: &faults.Dist{Dist: "deterministic", Value: 100}},
	}}
	for _, tc := range []struct {
		name string
		cfg  SystemConfig
		want []string
	}{
		{"fig8", fig8, []string{
			"VCPU_Scheduler/Num_PCPUs",
			"VCPU_Scheduler/Timestamp",
			"VCPU_Scheduler/VCPU_1_1",
			"VCPU_Scheduler/VCPU_1_2",
			"VCPU_Scheduler/VCPU_2_1",
			"VCPU_Scheduler/VCPU_3_1",
		}},
		{"fig8+pcpu_crash", crash, []string{
			"VCPU_Scheduler/Num_PCPUs",
			"VCPU_Scheduler/Timestamp",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := buildTestSystem(t, tc.cfg, greedy(30)).Model()
			prog, err := san.Compile(model)
			if err != nil {
				t.Fatal(err)
			}
			got := prog.QuietPlaces()
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("quiet places %v, want %v", got, tc.want)
			}
			quiet := make(map[string]bool, len(got))
			for _, name := range got {
				quiet[name] = true
			}
			st := model.Structure()
			for _, a := range st.Activities {
				for _, l := range a.Links {
					// An arc-only predicate reads its counted input links;
					// a gate predicate may read any input link.
					if l.Kind == san.LinkInput && (a.GatePredicates > 0 || l.Tokens > 0) && quiet[l.Place] {
						t.Errorf("%s reads quiet place %s", a.Name, l.Place)
					}
				}
			}
			for _, r := range st.Rewards {
				for _, ref := range r.Refs {
					if r.Kind == san.RewardRate && quiet[ref] {
						t.Errorf("reward %s reads quiet place %s", r.Name, ref)
					}
				}
			}
		})
	}
}
