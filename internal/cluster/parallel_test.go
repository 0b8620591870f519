package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
)

// atProcs runs f with runtime.GOMAXPROCS set to procs and restores the
// previous value afterwards.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// parallelTopology is a 256-host fleet shaped like the cluster benchmark:
// half busy 2-PCPU hosts with a resident 2-VCPU VM, half idle 4-PCPU
// hosts of parked capacity, three arrival waves and armed migration.
// Checks every 10 ticks and a 4-tick transfer delay cut windows of 4, 6
// and 10 ticks, which all step at width 4 on four CPUs.
func parallelTopology(t *testing.T) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	vm := func(vcpus int) config.VM { return config.VM{VCPUs: vcpus, Load: load, SyncEveryN: 5} }
	topo := &Topology{
		Horizon:   200,
		Placement: "least-loaded",
		Hosts: []HostGroup{
			{Name: "busy", Count: 128, PCPUs: 2, Slots: []Slot{{VM: vm(2), Admitted: true}, {VM: vm(1)}}},
			{Name: "idle", Count: 128, PCPUs: 4, Slots: []Slot{{VM: vm(2)}, {VM: vm(1), Count: 2}}},
		},
		Arrivals: []Arrival{
			{At: 10, Count: 256, VCPUs: 1},
			{At: 70, Count: 256, VCPUs: 1},
			{At: 130, Count: 256, VCPUs: 1},
		},
		Migration: &Migration{CheckEvery: 10, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: 4},
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// parallelRun is everything a replication exposes, rendered exactly.
type parallelRun struct {
	fleet  string
	hosts  []string
	spans  []string
	events uint64
}

// TestParallelWindowsMatchSerial requires the same bytes from window
// stepping at GOMAXPROCS 1, 2 and 4: a fleet's metrics, spans and event
// count, a failing fleet's error, and both cancellation tests.
func TestParallelWindowsMatchSerial(t *testing.T) {
	t.Run("fleet", testFleetAtEveryWidth)
	t.Run("failure", testFailureAtEveryWidth)
	t.Run("fault spans", testFaultSpansAtEveryWidth)
	// Only the coordinating goroutine polls the context, after the same
	// cumulative host-event counts as a serial loop.
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("cancel/procs=%d", procs), func(t *testing.T) {
			atProcs(procs, func() {
				t.Run("MidWindow", TestCancelMidWindow)
				t.Run("SingleWindow", TestCancelSingleWindow)
			})
		})
	}
}

// testFleetAtEveryWidth replicates parallelTopology at GOMAXPROCS 1, 2
// and 4 and compares the fleet metrics as hex floats, every host's
// metrics, the ordered dispatch and migrate spans and the host event
// count.
func testFleetAtEveryWidth(t *testing.T) {
	topo := parallelTopology(t)
	runs := map[int]parallelRun{}
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			if w := o.windowWidth(procs, topo.Migration.CheckEvery); w != procs {
				t.Fatalf("GOMAXPROCS %d: a check-to-check window steps at width %d; the fleet no longer exercises the parallel path", procs, w)
			}
			rec := &spanRecorder{}
			o.SetSink(rec)
			m, err := o.Replicate(context.Background(), 3)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			run := parallelRun{fleet: fmt.Sprint(hexMap(m)), spans: rec.lines, events: o.LastStats().Events}
			for h := range o.hosts {
				run.hosts = append(run.hosts, fmt.Sprint(hexMap(o.HostMetrics(h))))
			}
			if m[DispatchesMetric] == 0 || m[MigrationsMetric] == 0 {
				t.Fatalf("GOMAXPROCS %d: dispatches %g, migrations %g; the fleet must exercise both", procs, m[DispatchesMetric], m[MigrationsMetric])
			}
			runs[procs] = run
		})
	}
	want := runs[1]
	for _, procs := range []int{2, 4} {
		got := runs[procs]
		if got.fleet != want.fleet {
			t.Errorf("GOMAXPROCS %d: fleet metrics\n%s\nwant\n%s", procs, got.fleet, want.fleet)
		}
		for h := range want.hosts {
			if got.hosts[h] != want.hosts[h] {
				t.Errorf("GOMAXPROCS %d: host %d metrics\n%s\nwant\n%s", procs, h, got.hosts[h], want.hosts[h])
				break
			}
		}
		if strings.Join(got.spans, "\n") != strings.Join(want.spans, "\n") {
			t.Errorf("GOMAXPROCS %d: %d spans differ from the serial %d", procs, len(got.spans), len(want.spans))
		}
		if got.events != want.events {
			t.Errorf("GOMAXPROCS %d: %d host events, want %d", procs, got.events, want.events)
		}
	}
}

// testFailureAtEveryWidth spreads failing hosts over a 64-host fleet:
// c-0 (ID 3) and b-0 (ID 62) fail at t=20, a-0 (ID 33) at t=30. Workers
// claim hosts one at a time, so at widths 2 and 4 different workers step
// them. Every width must report c-0's failure, the smallest (time, host
// ID), with the same error string.
func testFailureAtEveryWidth(t *testing.T) {
	topo := &Topology{
		Horizon: 100,
		Hosts: []HostGroup{
			failingGroup("p", 3, 0), failingGroup("c", 1, 20), failingGroup("q", 29, 0),
			failingGroup("a", 1, 30), failingGroup("r", 28, 0), failingGroup("b", 1, 20),
			failingGroup("s", 1, 0),
		},
		Arrivals: []Arrival{{At: 50, VCPUs: 1}},
	}
	topo.applyDefaults()
	errs := map[int]string{}
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			if w := o.windowWidth(procs, 50); w != procs {
				t.Fatalf("GOMAXPROCS %d: the failing window steps at width %d", procs, w)
			}
			_, err = o.Replicate(context.Background(), 1)
			if err == nil {
				t.Fatalf("GOMAXPROCS %d: replication with failing hosts succeeded", procs)
			}
			errs[procs] = err.Error()
		})
	}
	if !strings.HasPrefix(errs[1], "cluster: host c-0: ") {
		t.Fatalf("serial error %q, want the failure of host c-0", errs[1])
	}
	for _, procs := range []int{2, 4} {
		if errs[procs] != errs[1] {
			t.Errorf("GOMAXPROCS %d: error %q, want %q", procs, errs[procs], errs[1])
		}
	}
}

// allSpans renders every span it receives, in emission order.
type allSpans struct{ lines []string }

func (r *allSpans) Emit(e obs.Event) { r.lines = append(r.lines, fmt.Sprint(e.Kind, e.Attrs)) }

// testFaultSpansAtEveryWidth replicates a fleet whose hosts all run a
// fault campaign with a sink installed. Its windows are big enough for
// four workers, but fault spans carry no host, so windows must step at
// width 1 for the spans to reach the sink in the serial order.
func testFaultSpansAtEveryWidth(t *testing.T) {
	g := failingGroup("f", 64, 0)
	g.Faults = &faults.Plan{Faults: []faults.Spec{{
		Name: "crash", Kind: faults.KindPCPUCrash, PCPU: 1,
		Every:    &faults.Dist{Dist: "exponential", Rate: 0.05},
		Duration: &faults.Dist{Dist: "uniform", Low: 2, High: 6},
	}}}
	topo := &Topology{Horizon: 100, Hosts: []HostGroup{g}, Arrivals: []Arrival{{At: 50, VCPUs: 1}}}
	topo.applyDefaults()
	spans := map[int][]string{}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			rec := &allSpans{}
			o.SetSink(rec)
			if w := o.windowWidth(procs, 50); w != 1 {
				t.Fatalf("GOMAXPROCS %d: width %d with fault spans going to the sink", procs, w)
			}
			if _, err := o.Replicate(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			spans[procs] = rec.lines
		})
	}
	if len(spans[1]) < 64 {
		t.Fatalf("%d spans; the fleet must inject faults on every host", len(spans[1]))
	}
	if strings.Join(spans[4], "\n") != strings.Join(spans[1], "\n") {
		t.Errorf("GOMAXPROCS 4: %d spans differ from the serial %d", len(spans[4]), len(spans[1]))
	}
}

// TestValidateRejectsNonFinite feeds NaN and infinite times and
// thresholds to Validate. Each must be rejected with an error: a NaN
// horizon used to panic in the event loop, an infinite one to run until
// cancelled, and NaN arrival, check or transfer times to replicate
// silently.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Topology)
	}{
		{"NaN horizon", func(t *Topology) { t.Horizon = nan }},
		{"+Inf horizon", func(t *Topology) { t.Horizon = inf }},
		{"NaN warmup", func(t *Topology) { t.Warmup = nan }},
		{"-Inf warmup", func(t *Topology) { t.Warmup = -inf }},
		{"NaN arrival time", func(t *Topology) { t.Arrivals[1].At = nan }},
		{"NaN checkEvery", func(t *Topology) { t.Migration.CheckEvery = nan }},
		{"+Inf checkEvery", func(t *Topology) { t.Migration.CheckEvery = inf }},
		{"NaN transferDelay", func(t *Topology) { t.Migration.TransferDelay = nan }},
		{"+Inf transferDelay", func(t *Topology) { t.Migration.TransferDelay = inf }},
		{"NaN highUtil", func(t *Topology) { t.Migration.HighUtil = nan }},
		{"NaN lowUtil", func(t *Topology) { t.Migration.LowUtil = nan }},
		{"-Inf lowUtil", func(t *Topology) { t.Migration.LowUtil = -inf }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := parallelTopology(t)
			tc.edit(topo)
			err := topo.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), "must be finite") {
				t.Errorf("error %q does not name the non-finite value", err)
			}
		})
	}
}
