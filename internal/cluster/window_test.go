package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vcpusim/internal/config"
	"vcpusim/internal/faults"
	"vcpusim/internal/obs"
)

// flipCtx reports cancellation from its at-th Err call on, so a test can
// cancel between two known cancellation checks without racing a timer.
type flipCtx struct {
	context.Context
	calls, at int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// thousandHostTopology is a 1000-host fleet whose first cluster event
// comes late, so tens of thousands of host events fall in its first
// window. Without arrivals and migration it has no cluster events at
// all: the whole replication is one window.
func thousandHostTopology(t *testing.T, clusterEvents bool) *Topology {
	t.Helper()
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon:   30,
		Placement: "round-robin",
		Hosts: []HostGroup{{
			Name: "rack", Count: 1000, PCPUs: 2,
			Slots: []Slot{
				{VM: config.VM{VCPUs: 2, Load: load, SyncEveryN: 5}, Admitted: true},
				{VM: config.VM{VCPUs: 1, Load: load}, Count: 2},
			},
		}},
	}
	if clusterEvents {
		topo.Arrivals = []Arrival{{At: 25, Count: 1000, VCPUs: 1}}
		topo.Migration = &Migration{CheckEvery: 27, HighUtil: 0.85, LowUtil: 0.6, TransferDelay: 1}
	}
	topo.applyDefaults()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCancelMidWindow cancels a 1000-host replication between two
// cancellation checks inside its first window. Replicate must return the
// cancellation at the very next check, and the cancelled orchestrator
// must then replay the seed bit for bit like a fresh one: cancellation
// leaves every pooled host worker reusable.
func TestCancelMidWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host cancellation in -short mode")
	}
	const seed = 5
	topo := thousandHostTopology(t, true)
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &flipCtx{Context: context.Background(), at: 2}
	if _, err := o.Replicate(ctx, seed); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replicate = %v, want a cancellation error", err)
	}
	if ctx.calls != ctx.at {
		t.Errorf("context polled %d times, want %d: the first check that saw the cancellation must return", ctx.calls, ctx.at)
	}
	if ev := o.LastStats().Events; ev != uint64(ctx.at*ctxCheckEvery) {
		t.Errorf("%d host events before returning, want %d (one check interval per poll)", ev, ctx.at*ctxCheckEvery)
	}
	if o.windows != 1 {
		t.Errorf("cancelled in window %d: the cancellation did not land in the first window", o.windows)
	}
	// The arrival at 25 was placed before the window, and the hosts not
	// yet stepped past 25 still hold its admissions. The replay below
	// makes the same admissions, so only a direct look shows that arming
	// drops them.
	pending := 0
	for _, h := range o.hosts {
		pending += len(h.pending) - h.applied
	}
	if pending == 0 {
		t.Fatal("no admission pending at the cancellation")
	}
	if err := o.arm(seed); err != nil {
		t.Fatal(err)
	}
	o.dismiss()
	for _, h := range o.hosts {
		if len(h.pending) != 0 {
			t.Fatalf("host %s: %d admissions of the cancelled replication still pending after arming", h.name, len(h.pending))
		}
	}

	got, err := o.Replicate(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Replicate(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hexMap(got)) != fmt.Sprint(hexMap(want)) {
		t.Fatalf("replay after cancellation diverged from a fresh orchestrator:\n%v\n%v", got, want)
	}
	for h := range o.hosts {
		if a, b := fmt.Sprint(hexMap(o.HostMetrics(h))), fmt.Sprint(hexMap(fresh.HostMetrics(h))); a != b {
			t.Fatalf("host %d replay diverged:\n%s\n%s", h, a, b)
		}
	}
}

// TestCancelSingleWindow covers a topology with no cluster events, whose
// whole replication is one window: an already-cancelled context must
// stop it at the first check.
func TestCancelSingleWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-host cancellation in -short mode")
	}
	o, err := New(thousandHostTopology(t, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.Replicate(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Replicate = %v, want a cancellation error", err)
	}
	if ev := o.LastStats().Events; ev != ctxCheckEvery {
		t.Errorf("%d host events before returning, want %d", ev, ctxCheckEvery)
	}
}

// failingGroup is count hosts whose fault campaign crashes PCPU 0 at
// time at with a NaN recovery delay: each host's replication fails at
// exactly that virtual time, when the recovery activity samples its
// delay. at == 0 builds healthy hosts.
func failingGroup(name string, count int, at float64) HostGroup {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	g := HostGroup{
		Name: name, Count: count, PCPUs: 2,
		Slots: []Slot{
			{VM: config.VM{VCPUs: 2, Load: load}, Admitted: true},
			{VM: config.VM{VCPUs: 1, Load: load}},
		},
	}
	if at > 0 {
		g.Faults = &faults.Plan{Faults: []faults.Spec{{
			Name: "bad", Kind: faults.KindPCPUCrash, PCPU: 0, At: at,
			Duration: &faults.Dist{Dist: "deterministic", Value: math.NaN()},
		}}}
	}
	return g
}

// TestFailureChoice pins which failure a replication reports when several
// hosts fail: the one the serial loop meets first, whatever window each
// failure falls in. Host events rank by (virtual time, host ID); an
// admission that fails ranks ahead of every host event at its time, and
// two failing admissions at one time rank in the order they were made.
// An admission fails here because its slot's generator activity was
// resolved in another host's program.
func TestFailureChoice(t *testing.T) {
	arrivals := []Arrival{{At: 10, VCPUs: 1}, {At: 55, VCPUs: 1}}
	// noParked drops the group's parked slot, so arrivals go elsewhere.
	noParked := func(g HostGroup) HostGroup { g.Slots = g.Slots[:1]; return g }
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	wide := HostGroup{Name: "w", PCPUs: 2, Slots: []Slot{{VM: config.VM{VCPUs: 2, Load: load}}}}
	const nanDelay, badAdmit = "invalid delay NaN", "admitting slot"
	for _, tc := range []struct {
		name     string
		hosts    []HostGroup
		arrivals []Arrival
		want     string
		cause    string
	}{
		{"one host fails", []HostGroup{failingGroup("ok", 2, 0), failingGroup("bad", 1, 30)}, nil, "bad-0", nanDelay},
		{"lower ID fails first", []HostGroup{failingGroup("a", 1, 20), failingGroup("b", 1, 30)}, nil, "a-0", nanDelay},
		{"higher ID fails first", []HostGroup{failingGroup("a", 1, 30), failingGroup("b", 1, 20)}, nil, "b-0", nanDelay},
		{"same time, lower ID wins", []HostGroup{failingGroup("ok", 1, 0), failingGroup("a", 3, 40)}, nil, "a-0", nanDelay},
		{"higher ID fails first, across windows", []HostGroup{failingGroup("a", 1, 60), failingGroup("b", 1, 20)}, arrivals, "b-0", nanDelay},
		{"higher ID fails first, same window", []HostGroup{failingGroup("a", 1, 50), failingGroup("b", 1, 20)}, arrivals, "b-0", nanDelay},
		// The arrival at 20 lands on b-0 (ID 1), whose admission fails at
		// the time a-0 (ID 0) fails: the admission comes first.
		{"admission before a host event at its time", []HostGroup{noParked(failingGroup("a", 1, 20)), failingGroup("b", 1, 0)},
			[]Arrival{{At: 20, VCPUs: 1}}, "b-0", badAdmit},
		// The wide arrival, made first, lands on w-0 (ID 1), the narrow
		// one on a-0 (ID 0): both admissions fail at 20, and the one
		// made first is reported.
		{"admissions at one time, in the order made", []HostGroup{failingGroup("a", 1, 0), wide},
			[]Arrival{{At: 20, VCPUs: 2}, {At: 20, VCPUs: 1}}, "w-0", badAdmit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := &Topology{Horizon: 100, Hosts: tc.hosts, Arrivals: tc.arrivals}
			topo.applyDefaults()
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			defer o.dismiss()
			if err := o.arm(1); err != nil {
				t.Fatal(err)
			}
			for _, h := range o.hosts {
				for i := range h.slots {
					if tc.cause == badAdmit && !h.genEnabled[i] {
						h.gen[i] = o.hosts[(h.id+1)%len(o.hosts)].gen[0]
					}
				}
			}
			err = o.run(context.Background())
			if err == nil {
				t.Fatal("replication with failing hosts succeeded")
			}
			if prefix := "cluster: host " + tc.want + ": "; !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("error %q, want the failure of host %s", err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("error %q is not the injected failure (%q)", err, tc.cause)
			}
		})
	}
}

// noopSink drops every span. Installing it makes every cluster event end
// a window, as a serial loop does.
type noopSink struct{}

func (noopSink) Emit(obs.Event) {}

// TestDeferredAdmissionsMatchEveryEventWindows replicates each topology
// twice at GOMAXPROCS 1, 2 and 4: without a sink, where only checks end
// windows and arrivals and admissions run ahead of the hosts, and with a
// sink that drops every span, where every cluster event ends a window.
// The fleet and every host's metrics must match as hex floats. Two
// topologies put admissions on check times (TransferDelay equals
// CheckEvery) and arrivals on check times, where a deferred admission is
// applied as its window ends; the third puts admissions between checks.
func TestDeferredAdmissionsMatchEveryEventWindows(t *testing.T) {
	onChecks := func(topo *Topology) *Topology {
		topo.Migration.TransferDelay = topo.Migration.CheckEvery
		return topo
	}
	mig := onChecks(migrationTopology(t))
	mig.Arrivals = []Arrival{{At: 100, Count: 1, VCPUs: 1}, {At: 300, Count: 2, VCPUs: 1}}
	topos := map[string]*Topology{
		"migration":            mig,
		"parallel":             onChecks(parallelTopology(t)),
		"parallel, off checks": parallelTopology(t),
	}
	for name, topo := range topos {
		for _, procs := range []int{1, 2, 4} {
			atProcs(procs, func() {
				var runs [2]parallelRun
				var windows [2]uint64
				var deferred [2]int
				for k, sink := range []obs.Sink{nil, noopSink{}} {
					o, err := New(topo)
					if err != nil {
						t.Fatal(err)
					}
					o.SetSink(sink)
					m, err := o.Replicate(context.Background(), 3)
					if err != nil {
						t.Fatalf("%s, GOMAXPROCS %d: %v", name, procs, err)
					}
					if m[DispatchesMetric] == 0 || m[MigrationsMetric] == 0 {
						t.Fatalf("%s: dispatches %g, migrations %g; the topology must exercise both", name, m[DispatchesMetric], m[MigrationsMetric])
					}
					runs[k] = parallelRun{fleet: fmt.Sprint(hexMap(m)), events: o.LastStats().Events}
					for h := range o.hosts {
						runs[k].hosts = append(runs[k].hosts, fmt.Sprint(hexMap(o.HostMetrics(h))))
					}
					windows[k], deferred[k] = o.LastStats().Windows, o.admissions
				}
				if deferred[0] == 0 || deferred[1] != 0 || windows[0] > windows[1] {
					t.Fatalf("%s, GOMAXPROCS %d: %d admissions deferred in %d windows without a sink, %d in %d with one", name, procs, deferred[0], windows[0], deferred[1], windows[1])
				}
				got, want := runs[0], runs[1]
				if got.fleet != want.fleet || got.events != want.events {
					t.Fatalf("%s, GOMAXPROCS %d: fleet metrics\n%s (%d events)\nwant\n%s (%d events)", name, procs, got.fleet, got.events, want.fleet, want.events)
				}
				for h := range want.hosts {
					if got.hosts[h] != want.hosts[h] {
						t.Fatalf("%s, GOMAXPROCS %d: host %d metrics\n%s\nwant\n%s", name, procs, h, got.hosts[h], want.hosts[h])
					}
				}
			})
		}
	}
}

// TestLateAdmissionAcrossReplications admits a VM at 99.5 on a host whose
// only events are its clock's ticks on integer times, so the admission
// follows the host's last event before the horizon of 100 and is applied
// only as the last window ends. The next replication on the same
// orchestrator must equal a fresh orchestrator's: no admission outlives
// its replication.
func TestLateAdmissionAcrossReplications(t *testing.T) {
	load := config.Distribution{Dist: "uniform", Low: 1, High: 10}
	topo := &Topology{
		Horizon:  100,
		Hosts:    []HostGroup{{Name: "late", Count: 2, PCPUs: 2, Slots: []Slot{{VM: config.VM{VCPUs: 1, Load: load}, Count: 2}}}},
		Arrivals: []Arrival{{At: 99.5, VCPUs: 1}},
	}
	topo.applyDefaults()
	ctx := context.Background()
	o, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := o.Replicate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[DispatchesMetric] != 1 {
		t.Fatalf("dispatches = %g, want 1", m[DispatchesMetric])
	}
	for _, h := range o.hosts {
		if len(h.pending) != 0 {
			t.Fatalf("host %s: %d admissions pending after the replication", h.name, len(h.pending))
		}
		for i, s := range h.slots {
			if (s.phase == slotAdmitted) != h.genEnabled[i] {
				t.Fatalf("host %s slot %d: phase %d, generator enabled %v", h.name, i, s.phase, h.genEnabled[i])
			}
		}
	}
	got, err := o.Replicate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Replicate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(hexMap(got)) != fmt.Sprint(hexMap(want)) {
		t.Fatalf("second replication diverged from a fresh orchestrator:\n%v\n%v", got, want)
	}
	for h := range o.hosts {
		if a, b := fmt.Sprint(hexMap(o.HostMetrics(h))), fmt.Sprint(hexMap(fresh.HostMetrics(h))); a != b {
			t.Fatalf("host %d diverged:\n%s\n%s", h, a, b)
		}
	}
}
