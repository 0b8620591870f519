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
	if o.dispatches != 0 {
		t.Errorf("%d dispatches before the cancellation: it did not land in the first window", o.dispatches)
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

// TestFailureChoice pins which host failure a replication reports when
// several hosts fail: the one with the smallest (virtual time, host ID),
// whatever window each failure falls in.
func TestFailureChoice(t *testing.T) {
	arrivals := []Arrival{{At: 10, VCPUs: 1}, {At: 55, VCPUs: 1}}
	for _, tc := range []struct {
		name     string
		hosts    []HostGroup
		arrivals []Arrival
		want     string
	}{
		{"one host fails", []HostGroup{failingGroup("ok", 2, 0), failingGroup("bad", 1, 30)}, nil, "bad-0"},
		{"lower ID fails first", []HostGroup{failingGroup("a", 1, 20), failingGroup("b", 1, 30)}, nil, "a-0"},
		{"higher ID fails first", []HostGroup{failingGroup("a", 1, 30), failingGroup("b", 1, 20)}, nil, "b-0"},
		{"same time, lower ID wins", []HostGroup{failingGroup("ok", 1, 0), failingGroup("a", 3, 40)}, nil, "a-0"},
		{"higher ID fails first, across windows", []HostGroup{failingGroup("a", 1, 60), failingGroup("b", 1, 20)}, arrivals, "b-0"},
		{"higher ID fails first, same window", []HostGroup{failingGroup("a", 1, 50), failingGroup("b", 1, 20)}, arrivals, "b-0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := &Topology{Horizon: 100, Hosts: tc.hosts, Arrivals: tc.arrivals}
			topo.applyDefaults()
			o, err := New(topo)
			if err != nil {
				t.Fatal(err)
			}
			_, err = o.Replicate(context.Background(), 1)
			if err == nil {
				t.Fatal("replication with failing hosts succeeded")
			}
			if prefix := "cluster: host " + tc.want + ": "; !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("error %q, want the failure of host %s", err, tc.want)
			}
			if !strings.Contains(err.Error(), "invalid delay NaN") {
				t.Fatalf("error %q is not the injected NaN-delay failure", err)
			}
		})
	}
}
