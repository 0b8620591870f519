package experiments

import (
	"context"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/sim"
)

// quickParams returns the cheapest parameterization that still exercises
// the full experiment code paths.
func quickParams() Params {
	p := Defaults()
	p.Horizon = 600
	p.Sim = sim.Options{MinReps: 2, MaxReps: 2, RelWidth: 100, Parallelism: 2}
	return p
}

func TestDefaults(t *testing.T) {
	p := Defaults()
	if p.Engine != EngineFast || p.Timeslice != 30 || p.Horizon != 20000 || p.Seed != 1 {
		t.Fatalf("defaults = %+v", p)
	}
	if len(p.Algorithms) != 3 {
		t.Fatalf("default algorithms = %v", p.Algorithms)
	}
	// Zero-valued params pick up every default.
	var zero Params
	d := zero.withDefaults()
	if d.Engine != EngineFast || d.Load == nil || len(d.Algorithms) == 0 {
		t.Fatalf("withDefaults = %+v", d)
	}
}

func TestVMSetStrings(t *testing.T) {
	cases := map[VMSet]string{
		Set1:     "set1 (2+2 VCPUs)",
		Set2:     "set2 (2+3 VCPUs)",
		Set3:     "set3 (2+4 VCPUs)",
		VMSet(9): "VMSet(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestSetConfigs(t *testing.T) {
	p := Defaults()
	for set, want := range map[VMSet]int{Set1: 2, Set2: 3, Set3: 4} {
		cfg, err := p.setConfig(set, 5)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.PCPUs != 4 || len(cfg.VMs) != 2 || cfg.VMs[0].VCPUs != 2 || cfg.VMs[1].VCPUs != want {
			t.Errorf("set %v config = %+v", set, cfg)
		}
	}
	if _, err := p.setConfig(VMSet(0), 5); err == nil {
		t.Error("invalid set accepted")
	}
}

func TestFig8Config(t *testing.T) {
	cfg := Defaults().fig8Config(3)
	if cfg.PCPUs != 3 || len(cfg.VMs) != 3 {
		t.Fatalf("config = %+v", cfg)
	}
	sizes := []int{2, 1, 1}
	for i, want := range sizes {
		if cfg.VMs[i].VCPUs != want {
			t.Errorf("VM %d VCPUs = %d, want %d", i, cfg.VMs[i].VCPUs, want)
		}
		if cfg.VMs[i].Workload.SyncEveryN != 5 {
			t.Errorf("VM %d sync = %d, want 1:5", i, cfg.VMs[i].Workload.SyncEveryN)
		}
	}
}

func TestUnknownEngineFails(t *testing.T) {
	p := quickParams()
	p.Engine = "warp"
	if _, err := Figure9(context.Background(), p); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestUnknownAlgorithmFails(t *testing.T) {
	p := quickParams()
	p.Algorithms = []string{"XYZ"}
	if _, err := Figure9(context.Background(), p); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFigure8TableStructure(t *testing.T) {
	tbl, err := Figure8(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"RRS", "SCS", "RCS"} {
		for p := 1; p <= 4; p++ {
			for _, col := range []string{"VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1"} {
				if _, ok := tbl.Get(algo+" "+string(rune('0'+p))+"PCPU", col); !ok {
					t.Errorf("missing cell %s %dPCPU / %s", algo, p, col)
				}
			}
		}
	}
}

func TestFigure10TwoTables(t *testing.T) {
	eff, abs, err := Figure10(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if eff == nil || abs == nil {
		t.Fatal("nil table")
	}
	if !strings.Contains(eff.Title, "scheduled time") {
		t.Errorf("efficiency table title = %q", eff.Title)
	}
	if !strings.Contains(abs.Title, "total time") {
		t.Errorf("absolute table title = %q", abs.Title)
	}
}

func TestSANEngineOption(t *testing.T) {
	p := quickParams()
	p.Engine = EngineSAN
	p.Algorithms = []string{"RRS"}
	tbl, err := Figure9(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(Set1.String(), "RRS"); !ok {
		t.Fatal("SAN-engine figure missing cells")
	}
}

func TestTimesliceSweepTable(t *testing.T) {
	tbl, err := TimesliceSweep(context.Background(), quickParams(), []int64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"timeslice 10", "timeslice 20"} {
		if _, ok := tbl.Get(row, "RRS"); !ok {
			t.Errorf("missing row %q", row)
		}
	}
}

func TestSkewSweepTable(t *testing.T) {
	tbl, err := SkewSweep(context.Background(), quickParams(), []int64{5, 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get("enter skew 5", "2-VCPU VM availability"); !ok {
		t.Error("missing skew-sweep cell")
	}
	if _, ok := tbl.Get("enter skew 20", "fairness spread"); !ok {
		t.Error("missing fairness-spread cell")
	}
}

func TestBalanceAblationTable(t *testing.T) {
	tbl, err := BalanceAblation(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"RRS", "Balance", "SCS", "RCS"} {
		if _, ok := tbl.Get("availability avg", algo); !ok {
			t.Errorf("missing balance cell for %s", algo)
		}
	}
}

func TestLockAblationTable(t *testing.T) {
	tbl, err := LockAblation(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	// Strict co-scheduling never strands a lock holder; relaxed
	// co-scheduling only mitigates (single starts can strand one briefly
	// until the co-stop fires).
	scs, ok := tbl.Get("spin fraction", "SCS")
	if !ok {
		t.Fatal("missing spin cell for SCS")
	}
	if scs.Mean != 0 {
		t.Errorf("SCS spin fraction = %g, want 0", scs.Mean)
	}
	rrs, _ := tbl.Get("spin fraction", "RRS")
	rcs, _ := tbl.Get("spin fraction", "RCS")
	if rcs.Mean >= rrs.Mean && rrs.Mean > 0 {
		t.Errorf("RCS spin (%g) not below RRS spin (%g)", rcs.Mean, rrs.Mean)
	}
	if _, ok := tbl.Get("productive share of busy time", "RRS"); !ok {
		t.Error("missing productive-share cell")
	}
}

func TestEfficiencyMetricDerivation(t *testing.T) {
	p := quickParams()
	cfg := p.fig8Config(2)
	factory, err := p.schedFactory("RRS")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.replicatorFactory(cfg, factory, nil, nil)()
	if err != nil {
		t.Fatal(err)
	}
	m, err := rep(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	eff, ok := m[EfficiencyMetric]
	if !ok {
		t.Fatal("efficiency metric not derived")
	}
	want := m[core.VCPUUtilizationAvgMetric] / m[core.AvailabilityAvgMetric]
	if eff != want {
		t.Fatalf("efficiency = %g, want %g", eff, want)
	}
}

func TestHybridAblationTable(t *testing.T) {
	tbl, err := HybridAblation(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"RRS", "SCS", "Hybrid(co:parallel)"} {
		if _, ok := tbl.Get("spin fraction", algo); !ok {
			t.Errorf("missing spin cell for %s", algo)
		}
	}
	hybridSpin, _ := tbl.Get("spin fraction", "Hybrid(co:parallel)")
	if hybridSpin.Mean != 0 {
		t.Errorf("hybrid spin = %g, want 0 (parallel VM gang-scheduled)", hybridSpin.Mean)
	}
	scsPutil, _ := tbl.Get("PCPU utilization", "SCS")
	hybridPutil, _ := tbl.Get("PCPU utilization", "Hybrid(co:parallel)")
	if hybridPutil.Mean <= scsPutil.Mean {
		t.Errorf("hybrid PCPU utilization %g not above SCS %g", hybridPutil.Mean, scsPutil.Mean)
	}
}
