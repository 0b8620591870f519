package core

import (
	"sort"
	"testing"

	"vcpusim/internal/faults"
	"vcpusim/internal/san"
)

// structureDeps recomputes the enabling-dependency graph from the exported
// structure snapshot alone, applying the documented compilation rule: an
// activity with no predicates has no place dependencies (instantaneous
// ones go to the wildcard set so stabilization still reaches them); an
// activity whose predicates are all input arcs (no gate predicate) depends
// only on its arc places, which are its counted input links (the builder
// declares no counted input link that is not an arc); any other activity
// with predicates depends on every known place named by one of its input
// links, and becomes a wildcard if it documents none. Rate rewards depend
// on each place ref (the snapshot shows a projection ref as its place);
// activity refs and opaque rewards are not place-indexed.
func structureDeps(st san.Structure) (deps map[string][3][]string, wilds []string) {
	known := make(map[string]bool, len(st.Places))
	deps = make(map[string][3][]string, len(st.Places))
	for _, p := range st.Places {
		known[p.Name] = true
		deps[p.Name] = [3][]string{}
	}
	actNames := make(map[string]bool, len(st.Activities))
	for _, a := range st.Activities {
		actNames[a.Name] = true
	}
	addDep := func(place string, slot int, name string) {
		d := deps[place]
		d[slot] = append(d[slot], name)
		deps[place] = d
	}
	for _, a := range st.Activities {
		if a.Predicates == 0 {
			if a.Kind == san.Instantaneous {
				wilds = append(wilds, a.Name)
			}
			continue
		}
		arcOnly := a.GatePredicates == 0
		indexed := false
		for _, l := range a.Links {
			if l.Kind != san.LinkInput || !known[l.Place] || arcOnly && l.Tokens == 0 {
				continue
			}
			indexed = true
			if a.Kind == san.Timed {
				addDep(l.Place, 0, a.Name)
			} else {
				addDep(l.Place, 1, a.Name)
			}
		}
		if !indexed {
			wilds = append(wilds, a.Name)
		}
	}
	for _, r := range st.Rewards {
		if r.Kind != san.RewardRate {
			continue
		}
		for _, ref := range r.Refs {
			if known[ref] {
				addDep(ref, 2, r.Name)
			} else if !actNames[ref] {
				// Unknown ref: the reward is re-observed on every change,
				// not indexed under any place.
				break
			}
		}
	}
	return deps, wilds
}

// TestCompiledDepsMatchStructure cross-checks the compiled
// enabling-dependency graph against the structure-derived recomputation on
// the paper's Figure 8 system and on the same system with a mixed fault
// campaign composed in. The compiled graph is what the executor trusts to
// skip re-testing activities, so any divergence from the documented links
// is an executor correctness bug, not a doc nit. A reward that refs a
// slot's Status projection is compiled under the projection, not the
// slot, so a slot's rate dependents are those of the slot and its
// projection together, and in these systems (no spinlock VM) every slot
// reward refs the projection.
func TestCompiledDepsMatchStructure(t *testing.T) {
	fig8 := SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []VMConfig{
			{VCPUs: 2, Workload: wl()},
			{VCPUs: 1, Workload: wl()},
			{VCPUs: 1, Workload: wl()},
		},
	}
	faulted := fig8
	faulted.Faults = &faults.Plan{Faults: []faults.Spec{
		{Name: "crash1", Kind: faults.KindPCPUCrash, PCPU: 1, At: 1500,
			Duration: &faults.Dist{Dist: "deterministic", Value: 1000}},
		{Name: "storm", Kind: faults.KindVCPUStall, VCPU: 0,
			Every:    &faults.Dist{Dist: "exponential", Rate: 0.002},
			Duration: &faults.Dist{Dist: "uniform", Low: 50, High: 200},
			Count:    3},
	}}

	for name, cfg := range map[string]SystemConfig{"fig8": fig8, "fig8+faults": faulted} {
		t.Run(name, func(t *testing.T) {
			sys := buildTestSystem(t, cfg, greedy(30))
			model := sys.Model()
			prog, err := san.Compile(model)
			if err != nil {
				t.Fatal(err)
			}
			want, wantWilds := structureDeps(model.Structure())

			projected := 0
			for place, wantSlots := range want {
				timed, inst, rates, ok := prog.Dependents(place)
				if !ok {
					t.Fatalf("place %s missing from compiled graph", place)
				}
				direct := rates
				if pt, pi, projRates, ok := prog.Dependents(place + ".Status"); ok {
					if len(pt)+len(pi) != 0 || len(direct) != 0 {
						t.Errorf("slot %s: activities %v %v under its projection, rewards %v under the slot itself", place, pt, pi, direct)
					}
					rates = append(append([]string(nil), direct...), projRates...)
					projected++
				}
				got := [3][]string{timed, inst, rates}
				for slot, label := range []string{"timed", "inst", "rates"} {
					g := append([]string(nil), got[slot]...)
					w := append([]string(nil), wantSlots[slot]...)
					sort.Strings(g)
					sort.Strings(w)
					if len(g) != len(w) {
						t.Errorf("%s dependents of %s: compiled %v, structure %v", label, place, g, w)
						continue
					}
					for i := range g {
						if g[i] != w[i] {
							t.Errorf("%s dependents of %s: compiled %v, structure %v", label, place, g, w)
							break
						}
					}
				}
			}

			if projected != len(sys.vcpus) {
				t.Errorf("%d slots compiled with a Status projection, want all %d", projected, len(sys.vcpus))
			}

			gotWilds := prog.WildcardActivities()
			sort.Strings(gotWilds)
			sort.Strings(wantWilds)
			if len(gotWilds) != len(wantWilds) {
				t.Fatalf("wildcards: compiled %v, structure %v", gotWilds, wantWilds)
			}
			for i := range gotWilds {
				if gotWilds[i] != wantWilds[i] {
					t.Fatalf("wildcards: compiled %v, structure %v", gotWilds, wantWilds)
				}
			}
		})
	}
}
