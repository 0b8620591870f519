package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
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
			// The build, arm and collect rounds share the crew with the
			// windows, so the race detector sees them run in parallel too.
			for tk, name := range map[task]string{taskBuild: "build", taskArm: "arm", taskCollect: "collect"} {
				if w := o.widths[tk]; (procs > 1) != (w > 1) {
					t.Fatalf("GOMAXPROCS %d: the %s round ran at width %d", procs, name, w)
				}
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

// TestFailureChoiceUnderStealing fails a-0 (ID 15, the back of stripe
// 0) and b-0 (ID 16, the front of stripe 1) at the same virtual time,
// t=20, in a 32-host fleet whose first window, [0, 2000), steps at
// width 2. Worker 1 claims b-0 first and meets its failure; its other
// hosts then run only to t=20, about 200 host events in all, while
// worker 0 steps its hosts to t=2000, over a thousand events each.
// Every round gives each worker up to 4096 host events and ends only
// when both have used them, so worker 1 steals a-0 in the first round,
// before worker 0 can get past its third host, however the goroutines
// are scheduled. a-0 precedes b-0 in (time, host ID) order, so worker 1
// must still run a-0's events at exactly t=20: a strict "before t"
// bound on every later host misses a-0's failure and reports b-0's.
func TestFailureChoiceUnderStealing(t *testing.T) {
	topo := &Topology{
		Horizon: 3000,
		Hosts: []HostGroup{
			failingGroup("p", 15, 0), failingGroup("a", 1, 20),
			failingGroup("b", 1, 20), failingGroup("q", 15, 0),
		},
		Arrivals: []Arrival{{At: 2000, VCPUs: 1}},
	}
	topo.applyDefaults()
	atProcs(2, func() {
		o, err := New(topo)
		if err != nil {
			t.Fatal(err)
		}
		if w := o.windowWidth(2, 2000); w != 2 {
			t.Fatalf("the failing window steps at width %d, want 2", w)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			_, err := o.Replicate(context.Background(), seed)
			if err == nil {
				t.Fatalf("seed %d: replication with failing hosts succeeded", seed)
			}
			if !strings.HasPrefix(err.Error(), "cluster: host a-0: ") {
				t.Fatalf("seed %d: error %q, want the failure of host a-0", seed, err)
			}
			if o.steals == 0 {
				t.Fatalf("seed %d: no worker stole a host; the case no longer exercises stealing", seed)
			}
		}
	})
}

// goroutinesSpan records the goroutine count at every span, each
// emitted on the replication's calling goroutine between two windows.
type goroutinesSpan struct{ counts []int }

func (r *goroutinesSpan) Emit(obs.Event) { r.counts = append(r.counts, runtime.NumGoroutine()) }

// settle waits until the goroutine count falls back to base: a helper
// has made its last move before Replicate returns, but the runtime
// counts its goroutine until it has returned.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	for wait := 0; runtime.NumGoroutine() > base; wait++ {
		if wait == 5000 {
			t.Fatalf("%s: %d goroutines, %d before the replication", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// quietGoroutines returns the goroutine count once it has held for ten
// milliseconds, so helpers an earlier test dismissed, which the runtime
// counts until they have returned, are out of the baseline.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for held := 0; held < 10; held++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, -1
		}
	}
	return n
}

// TestCrewLeavesNoGoroutines builds a fleet, then replicates it to
// completion and cancelled mid-window, and replicates one that fails,
// at GOMAXPROCS 1, 2 and 4. While a replication runs, its crew of
// GOMAXPROCS − 1 helpers lives across windows (none at GOMAXPROCS 1);
// after New and Replicate return, the goroutine count is back at its
// baseline, whatever the outcome.
func TestCrewLeavesNoGoroutines(t *testing.T) {
	failing := &Topology{
		Horizon:  100,
		Hosts:    []HostGroup{failingGroup("p", 31, 0), failingGroup("a", 1, 60)},
		Arrivals: []Arrival{{At: 10, VCPUs: 1}, {At: 50, VCPUs: 1}},
	}
	failing.applyDefaults()
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			base := quietGoroutines()
			o, err := New(parallelTopology(t))
			if err != nil {
				t.Fatal(err)
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, built", procs))
			rec := &goroutinesSpan{}
			o.SetSink(rec)
			if _, err := o.Replicate(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			for _, n := range rec.counts {
				if n != base+procs-1 {
					t.Fatalf("GOMAXPROCS %d: %d goroutines between windows, want %d + %d helpers", procs, n, base, procs-1)
				}
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, completed", procs))

			ctx := &flipCtx{Context: context.Background(), at: 3}
			if _, err := o.Replicate(ctx, 2); !errors.Is(err, context.Canceled) {
				t.Fatalf("GOMAXPROCS %d: Replicate = %v, want a cancellation error", procs, err)
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, cancelled", procs))

			f, err := New(failing)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Replicate(context.Background(), 1); err == nil {
				t.Fatalf("GOMAXPROCS %d: replication with a failing host succeeded", procs)
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, failed", procs))
		})
	}
}

// TestCrewFailuresLeaveNoGoroutines fails the arm round and then the
// collect round on two hosts of the 40-host policies fleet, duob-2 (ID
// 22) and quadb-8 (ID 38), both in the second stripe of those rounds'
// two workers, where either worker can meet them, and cancels one
// replication, at GOMAXPROCS 2 and 4. Each failure must report duob-2,
// the lowest failing host ID, and after each case no helper is left
// running. The orchestrator's next replication must still reproduce the
// policies golden: a pooled orchestrator stays reusable after any
// outcome.
func TestCrewFailuresLeaveNoGoroutines(t *testing.T) {
	buf, err := os.ReadFile(policiesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]policyRun
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	want := golden["least-loaded/seed1"]
	bad := []int{22, 38}
	ctx := context.Background()
	for _, procs := range []int{2, 4} {
		atProcs(procs, func() {
			base := quietGoroutines()
			o, err := New(policiesTopology(t, "least-loaded"))
			if err != nil {
				t.Fatal(err)
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, built", procs))
			if w := o.windowWidth(procs, 1); w != 2 {
				t.Fatalf("GOMAXPROCS %d: arm and collect run at width %d, want 2", procs, w)
			}
			failed := func(what string, err error) {
				t.Helper()
				if prefix := "cluster: host " + o.hosts[bad[0]].name + ": "; err == nil || !strings.HasPrefix(err.Error(), prefix) {
					t.Fatalf("GOMAXPROCS %d, %s: error %v, want one starting %q", procs, what, err, prefix)
				}
				settle(t, base, fmt.Sprintf("GOMAXPROCS %d, %s", procs, what))
			}

			// Arm: a parked slot's generator, flagged enabled so arming
			// disables it, is resolved in host 0's program, which the
			// host's instance rejects.
			slots := map[int]int{}
			refs := map[int]san.ActivityRef{}
			for _, id := range bad {
				h := o.hosts[id]
				i := slices.IndexFunc(h.slots, func(s slotState) bool { return !s.startsUp })
				slots[id], refs[id] = i, h.gen[i]
				h.gen[i], h.genEnabled[i] = o.hosts[0].gen[0], true
			}
			_, err = o.Replicate(ctx, 1)
			failed("arm", err)
			for id, i := range slots {
				o.hosts[id].gen[i] = refs[id]
			}

			// Collect: Replicate's steps, with both hosts' instances failed
			// between the run and the collect round.
			err = func() error {
				defer o.dismiss()
				if err := o.arm(1); err != nil {
					return err
				}
				if err := o.run(ctx); err != nil {
					return err
				}
				for _, id := range bad {
					if o.hosts[id].inst.Exec(-1, func() {}) == nil {
						t.Fatal("Exec before the host's clock succeeded")
					}
				}
				_, err := o.collect()
				return err
			}()
			failed("collect", err)

			if _, err := o.Replicate(&flipCtx{Context: ctx, at: 1}, 2); !errors.Is(err, context.Canceled) {
				t.Fatalf("GOMAXPROCS %d: Replicate = %v, want a cancellation error", procs, err)
			}
			settle(t, base, fmt.Sprintf("GOMAXPROCS %d, cancelled", procs))

			rec := &spanRecorder{}
			o.SetSink(rec)
			m, err := o.Replicate(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := (policyRun{Fleet: hexMap(m), Spans: rec.lines}); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("GOMAXPROCS %d: after the failures, seed 1 gives\n%v\nwant the golden\n%v", procs, got, want)
			}
		})
	}
}

// TestWindowCounters pins LastStats' window counters on
// parallelTopology, neither of which reaches the metric map: one window
// per migration check plus the last one to the horizon, at every
// GOMAXPROCS, every one of them parallel above 1 and none at 1. It also checks the internal steal count: none
// without a second worker, some with one, since the idle hosts (the
// upper half of the IDs) have far fewer events than the busy ones and
// their workers run out first.
func TestWindowCounters(t *testing.T) {
	topo := parallelTopology(t)
	var windows uint64
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			m, err := o.Replicate(context.Background(), 3)
			if err != nil {
				t.Fatal(err)
			}
			st := o.LastStats()
			// Checks at 10, 20, ..., 190 end 19 windows, the horizon the
			// 20th; arrivals and admissions end none.
			if st.Windows != 20 {
				t.Fatalf("GOMAXPROCS %d: %d windows, want 20", procs, st.Windows)
			}
			if procs == 1 {
				windows = st.Windows
				if st.ParallelWindows != 0 || o.steals != 0 {
					t.Errorf("GOMAXPROCS 1: %d parallel windows, %d steals; width 1 has no second worker", st.ParallelWindows, o.steals)
				}
			} else {
				if st.Windows != windows {
					t.Errorf("GOMAXPROCS %d: %d windows, %d at GOMAXPROCS 1", procs, st.Windows, windows)
				}
				if st.ParallelWindows != st.Windows {
					t.Errorf("GOMAXPROCS %d: %d of %d windows parallel, want all", procs, st.ParallelWindows, st.Windows)
				}
				if o.steals == 0 {
					t.Errorf("GOMAXPROCS %d: no steals", procs)
				}
			}
			for name := range m {
				if strings.Contains(name, "window") || strings.Contains(name, "steal") {
					t.Errorf("metric %q: window counters stay out of the metric map", name)
				}
			}
		})
	}
}

// TestCrewGrowsWithinReplication runs a 4-host fleet at GOMAXPROCS 4
// whose first window, [0, 4), steps at width 2 and whose later ones
// step at width 4, on an orchestrator built at GOMAXPROCS 1: the crew
// and the workers' state grow from one helper to three while the first
// helper is running. The replication must finish with the serial
// loop's metrics.
func TestCrewGrowsWithinReplication(t *testing.T) {
	topo := &Topology{
		Horizon:  600,
		Hosts:    []HostGroup{failingGroup("h", 4, 0)},
		Arrivals: []Arrival{{At: 4, VCPUs: 1}, {At: 300, VCPUs: 1}},
	}
	topo.applyDefaults()
	fleets := map[int]string{}
	for _, procs := range []int{1, 4} {
		var o *Orchestrator
		atProcs(1, func() {
			var err error
			if o, err = New(topo); err != nil {
				t.Fatal(err)
			}
		})
		atProcs(procs, func() {
			if procs == 4 {
				if w, v := o.windowWidth(procs, 4), o.windowWidth(procs, 296); w != 2 || v != 4 {
					t.Fatalf("windows step at widths %d and %d, want 2 and then 4", w, v)
				}
			}
			m, err := o.Replicate(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			fleets[procs] = fmt.Sprint(hexMap(m))
		})
	}
	if fleets[4] != fleets[1] {
		t.Errorf("GOMAXPROCS 4: fleet metrics\n%s\nwant\n%s", fleets[4], fleets[1])
	}
}

// TestSignalIgnoresStaleWake parks a waiter, then replays the tail of a
// post whose counter the waiter has already seen, as a helper of an
// earlier replication could: parked cleared and a wake-up sent, the
// counter unchanged. await must park again and return only the next
// value posted.
func TestSignalIgnoresStaleWake(t *testing.T) {
	s := &signal{wake: make(chan struct{}, 1)}
	got := make(chan uint32, 1)
	go func() { got <- s.await(0) }()
	for !s.parked.Load() {
		runtime.Gosched()
	}
	if s.parked.Swap(false) {
		s.wake <- struct{}{}
	}
	select {
	case n := <-got:
		t.Fatalf("await returned %d on a stale wake-up", n)
	case <-time.After(20 * time.Millisecond):
	}
	s.post(1)
	if n := <-got; n != 1 {
		t.Fatalf("await returned %d, want 1", n)
	}
}
