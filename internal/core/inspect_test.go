package core_test

import (
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

func inspectConfig() core.SystemConfig {
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return core.SystemConfig{
		PCPUs:     2,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: 1, Workload: wl},
		},
	}
}

func inspectWorker(t *testing.T) *core.Worker {
	t.Helper()
	factory, err := sched.Factory("RRS", sched.Params{Timeslice: 30})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorker(inspectConfig(), factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestInspectSurface checks the read-only snapshots: entity counts and
// names, consistency between the VCPU and PCPU views after a
// replication, and that Inspect* never allocates (probes call it from
// fire hooks at event rate).
func TestInspectSurface(t *testing.T) {
	w := inspectWorker(t)
	sys := w.System()
	if sys.NumVCPUs() != 3 || sys.NumPCPUs() != 2 {
		t.Fatalf("NumVCPUs=%d NumPCPUs=%d, want 3 and 2", sys.NumVCPUs(), sys.NumPCPUs())
	}
	if got := sys.VCPUName(1); got != "VM1.VCPU2" {
		t.Fatalf("VCPUName(1) = %q", got)
	}
	if got := sys.VCPUName(2); got != "VM2.VCPU1" {
		t.Fatalf("VCPUName(2) = %q", got)
	}
	if _, err := w.Run(500, 7); err != nil {
		t.Fatal(err)
	}
	var vc core.InspectVCPU
	var pc core.PCPUView
	for i := 0; i < sys.NumVCPUs(); i++ {
		sys.InspectVCPU(i, &vc)
		if vc.PCPU >= 0 {
			sys.InspectPCPU(vc.PCPU, &pc)
			if pc.VCPU != i {
				t.Errorf("VCPU %d claims PCPU %d, which hosts %d", i, vc.PCPU, pc.VCPU)
			}
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		sys.InspectVCPU(0, &vc)
		sys.InspectPCPU(0, &pc)
	}); n != 0 {
		t.Errorf("Inspect allocated %.1f times per call, want 0", n)
	}
}

// TestHistogramMetricsOptIn pins the opt-in contract: hist/* metrics
// appear only after EnableHistograms, carry samples, and the underlying
// metrics of the replication are unchanged by enabling them.
func TestHistogramMetricsOptIn(t *testing.T) {
	plain := inspectWorker(t)
	mOff, err := plain.Run(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mOff[core.HistMetric(core.WaitHist, "p50")]; ok {
		t.Fatal("hist metrics present without EnableHistograms")
	}

	w := inspectWorker(t)
	w.EnableHistograms()
	mOn, err := w.Run(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mOn[core.HistMetric(core.WaitHist, "count")] == 0 {
		t.Fatal("wait histogram recorded no samples")
	}
	if mOn[core.HistMetric(core.QueueHist, "count")] == 0 {
		t.Fatal("queue histogram recorded no samples")
	}
	for name, v := range mOff {
		if mOn[name] != v {
			t.Errorf("metric %s changed when histograms were enabled: %g vs %g", name, mOn[name], v)
		}
	}

	var acc obs.HistAccumulator
	w.CollectHistograms(&acc)
	sums := acc.Summaries()
	if sums[core.WaitHist].Count == 0 {
		t.Fatal("accumulator collected no wait samples")
	}
	if float64(sums[core.WaitHist].Count) != mOn[core.HistMetric(core.WaitHist, "count")] {
		t.Fatal("accumulator and metric map disagree on the sample count")
	}
}

// TestHistogramsResetPerReplication pins reseed hygiene: the same seed
// yields the same histogram metrics whether or not other replications
// ran in between on the same pooled worker.
func TestHistogramsResetPerReplication(t *testing.T) {
	w := inspectWorker(t)
	w.EnableHistograms()
	m1, err := w.Run(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(500, 8); err != nil {
		t.Fatal(err)
	}
	m2, err := w.Run(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, stat := range []string{"p50", "p95", "p99", "mean", "count"} {
		name := core.HistMetric(core.WaitHist, stat)
		if m1[name] != m2[name] {
			t.Errorf("%s leaked across replications: %g vs %g", name, m1[name], m2[name])
		}
	}
}

// TestFlightRecorderDecisions checks the scheduler half of the flight
// recorder: applied assignments land in the ring with readable labels.
func TestFlightRecorderDecisions(t *testing.T) {
	w := inspectWorker(t)
	// Firings outnumber decisions ~6:1 per tick, so size the ring to hold
	// the whole replication and keep the early assignments in view.
	fr := obs.NewFlightRecorder(4096)
	w.SetFlightRecorder(fr)
	if _, err := w.Run(200, 3); err != nil {
		t.Fatal(err)
	}
	if fr.Len() == 0 {
		t.Fatal("flight recorder stayed empty across a replication")
	}
	dump := fr.Dump()
	if !strings.Contains(dump, "sched assign VCPU") {
		t.Fatalf("flight dump has no scheduler decisions:\n%s", dump)
	}
}

// TestInspectionOffAllocFree pins the zero-cost contract of the whole
// inspection layer: a worker with no histograms, no flight recorder,
// and no probes attached keeps the replication loop's allocation budget
// at the pre-inspection level (the returned metric maps only).
func TestInspectionOffAllocFree(t *testing.T) {
	w := inspectWorker(t)
	seed := uint64(0)
	// Warm the pooled instance once so one-time growth is off the books.
	if _, err := w.Run(200, 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := w.Run(200, seed); err != nil {
			t.Fatal(err)
		}
	})
	// The metric map has ~20 entries (availability per VCPU, utilizations,
	// efficiency inputs); budget covers the map and its entries, nothing
	// from the inspection layer.
	if allocs > 40 {
		t.Errorf("inspection-off replication allocated %.1f times, want metric maps only (<= 40)", allocs)
	}
}
