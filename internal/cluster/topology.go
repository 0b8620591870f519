// Package cluster runs N host models under one global clock: a
// shared-clock multi-host orchestrator built on the san.Instance step
// primitives (BeginRun / PeekNextEventTime / ProcessNextEvent / Exec /
// EndRun). Each host is an independent compiled
// system shard — its own core.System, san.Program, and san.Instance.
// Hosts interact only through cluster-level events (VM arrivals routed
// by a pluggable placement policy, threshold-triggered VM migration as
// drain / transfer-delay / re-admit), so the orchestrator steps every
// host through its own events up to the next cluster event, then handles
// that event; host degradation runs through the existing per-host fault
// surface.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"vcpusim/internal/config"
	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/san"
	"vcpusim/internal/sim"
)

// Slot describes a group of identical VM slots provisioned on every host
// of a host group. A slot is fixed model capacity — the VM sub-model is
// composed at build time — while its occupancy is orchestrator state: an
// admitted slot runs from t=0, a parked one waits for a dispatch or an
// in-flight migration.
type Slot struct {
	config.VM
	// Count replicates the slot definition; default 1.
	Count int `json:"count,omitempty"`
	// Admitted starts the slot occupied (resident from t=0) instead of
	// parked.
	Admitted bool `json:"admitted,omitempty"`
}

// HostGroup describes count identical hosts.
type HostGroup struct {
	// Name labels the group's hosts ("rack1" yields rack1-0, rack1-1, …);
	// empty defaults to "host".
	Name string `json:"name,omitempty"`
	// Count is the number of hosts in the group; default 1.
	Count int `json:"count,omitempty"`
	// PCPUs is each host's physical core count.
	PCPUs int `json:"pcpus"`
	// Timeslice is the host scheduler's default timeslice; default 30
	// (the paper's Figure 8 setting).
	Timeslice int64 `json:"timeslice,omitempty"`
	// Scheduler is the host's VCPU scheduling algorithm; empty name
	// defaults to RRS.
	Scheduler config.Scheduler `json:"scheduler,omitempty"`
	// Slots are the VM slots provisioned on each host of the group.
	Slots []Slot `json:"slots"`
	// Faults, when non-nil, is a per-host fault campaign (host crash =
	// PCPU fail-stop specs); composed into every host of the group.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// Arrival is one batch of VM arrivals: count VMs of the given VCPU width
// arrive at virtual time at and are routed by the placement policy.
type Arrival struct {
	At float64 `json:"at"`
	// Count is the number of VMs arriving; default 1.
	Count int `json:"count,omitempty"`
	// VCPUs is the VCPU width each arriving VM needs; a host fits it when
	// it holds a free parked slot of at least that width.
	VCPUs int `json:"vcpus"`
}

// Migration configures threshold-triggered VM migration. Every
// checkEvery ticks the orchestrator scans hosts in ID order: a host
// whose observed PCPU assignment fraction exceeds highUtil drains its
// lowest admitted slot toward the least-loaded host below lowUtil that
// fits it. Draining disables the VM's workload generator; once the VM
// runs dry (observed at check granularity) it is evicted and re-admitted
// on the target after transferDelay ticks.
type Migration struct {
	CheckEvery    float64 `json:"checkEvery"`
	HighUtil      float64 `json:"highUtil"`
	LowUtil       float64 `json:"lowUtil"`
	TransferDelay float64 `json:"transferDelay"`
}

// Topology is a complete cluster description: host groups, the placement
// policy, the arrival schedule, and optional migration thresholds.
type Topology struct {
	// Name labels the topology in reports.
	Name string `json:"name,omitempty"`
	// Contract is the determinism contract every host compiles under: 1,
	// the only one (san.DefaultContract), or 0 for it.
	Contract int `json:"contract,omitempty"`
	// Horizon is the simulated length per replication in ticks; default
	// 20000. Warmup truncates the measurement window's start.
	Horizon float64 `json:"horizon,omitempty"`
	Warmup  float64 `json:"warmup,omitempty"`
	// Placement selects the policy routing VM arrivals: "round-robin"
	// (default), "least-loaded", or "first-fit".
	Placement string `json:"placement,omitempty"`
	// Seed derives all replication seeds; default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Hosts are the host groups; Arrivals the dispatch schedule;
	// Migration the optional migration thresholds.
	Hosts     []HostGroup `json:"hosts"`
	Arrivals  []Arrival   `json:"arrivals,omitempty"`
	Migration *Migration  `json:"migration,omitempty"`
	// Replications are the CI-controlled stopping parameters.
	Replications config.Replications `json:"replications,omitempty"`
}

// UnmarshalJSON accepts either the object form {"hosts": [...], ...}
// used by standalone topology files or a bare host-group array [...],
// the compact form for a placement-only cluster. Unknown fields are
// rejected in both forms (the same contract as faults.Plan).
func (t *Topology) UnmarshalJSON(data []byte) error {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if len(trimmed) > 0 && trimmed[0] == '[' {
		return dec.Decode(&t.Hosts)
	}
	// A local alias drops the Unmarshaler method, avoiding recursion.
	type alias Topology
	var a alias
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*t = Topology(a)
	return nil
}

// ParseTopology reads a Topology from JSON, rejecting unknown fields,
// applying defaults, and validating the result.
func ParseTopology(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("cluster: decode topology: %w", err)
	}
	t.applyDefaults()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// applyDefaults fills the documented zero-value defaults in place.
func (t *Topology) applyDefaults() {
	if t.Contract == 0 {
		t.Contract = san.DefaultContract
	}
	if t.Horizon == 0 {
		t.Horizon = 20000
	}
	if t.Placement == "" {
		t.Placement = "round-robin"
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	for g := range t.Hosts {
		hg := &t.Hosts[g]
		if hg.Count == 0 {
			hg.Count = 1
		}
		if hg.Timeslice == 0 {
			hg.Timeslice = 30
		}
		if hg.Scheduler.Name == "" {
			hg.Scheduler.Name = "RRS"
		}
		for s := range hg.Slots {
			if hg.Slots[s].Count == 0 {
				hg.Slots[s].Count = 1
			}
		}
	}
	for i := range t.Arrivals {
		if t.Arrivals[i].Count == 0 {
			t.Arrivals[i].Count = 1
		}
	}
}

// Expansion bounds on the hosts of a topology, the VM slots of one host
// and the VM arrivals of a topology, each summed over its groups. Every
// unit of a count is expanded into memory, so Validate rejects a count
// past its bound before expanding anything. The bounds sit far above
// every shipped topology (the 10,000-host smoke test, the benchmark's
// 250-host fleet, the demo topology); core.SystemConfig rejects more
// than core.MaxVCPUSlots VCPUs per host anyway, after the expansion.
const (
	maxHosts    = 100_000
	maxSlots    = 1024
	maxArrivals = 1_000_000
)

// Validate checks the topology against the framework's constraints. It
// covers everything the fuzz target must survive: host, slot and
// arrival counts must be positive and within the expansion bounds, each
// host group must expand to a valid core.SystemConfig and scheduler,
// arrivals must fit some provisioned slot inside the horizon, migration
// thresholds must be ordered and positive, and every time and threshold
// must be finite.
func (t *Topology) Validate() error {
	if err := t.validateFinite(); err != nil {
		return err
	}
	if t.Contract != san.DefaultContract {
		return fmt.Errorf("cluster: contract must be %d (contract 2, ziggurat sampling, was removed), got %d", san.DefaultContract, t.Contract)
	}
	if t.Horizon <= 0 {
		return fmt.Errorf("cluster: non-positive horizon %g", t.Horizon)
	}
	if t.Warmup < 0 || t.Warmup >= t.Horizon {
		return fmt.Errorf("cluster: warmup %g outside [0, horizon %g)", t.Warmup, t.Horizon)
	}
	if _, err := policyFor(t.Placement); err != nil {
		return err
	}
	if len(t.Hosts) == 0 {
		return fmt.Errorf("cluster: need at least one host group")
	}
	maxSlot, hosts := 0, 0
	for g, hg := range t.Hosts {
		if err := checkCount(hg.Count, hosts, maxHosts, "hosts"); err != nil {
			return fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		hosts += hg.Count
		if len(hg.Slots) == 0 {
			return fmt.Errorf("cluster: host group %d: need at least one VM slot", g)
		}
		slots := 0
		for s, slot := range hg.Slots {
			if err := checkCount(slot.Count, slots, maxSlots, "VM slots of one host"); err != nil {
				return fmt.Errorf("cluster: host group %d: slot %d: %w", g, s, err)
			}
			slots += slot.Count
		}
		if strings.ContainsAny(hg.Name, " \t\n/") {
			return fmt.Errorf("cluster: host group %d: name %q contains separators", g, hg.Name)
		}
		cfg, err := hg.systemConfig()
		if err != nil {
			return fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		if _, err := hg.schedulerFactory(); err != nil {
			return fmt.Errorf("cluster: host group %d: %w", g, err)
		}
		for _, vm := range cfg.VMs {
			if vm.VCPUs > maxSlot {
				maxSlot = vm.VCPUs
			}
		}
	}
	arrivals := 0
	for i, a := range t.Arrivals {
		if a.At < 0 || a.At >= t.Horizon {
			return fmt.Errorf("cluster: arrival %d: time %g outside [0, horizon %g)", i, a.At, t.Horizon)
		}
		if err := checkCount(a.Count, arrivals, maxArrivals, "arrivals"); err != nil {
			return fmt.Errorf("cluster: arrival %d: %w", i, err)
		}
		arrivals += a.Count
		if a.VCPUs < 1 {
			return fmt.Errorf("cluster: arrival %d: non-positive vcpus %d", i, a.VCPUs)
		}
		if a.VCPUs > maxSlot {
			return fmt.Errorf("cluster: arrival %d: %d VCPUs exceeds the widest provisioned slot (%d)", i, a.VCPUs, maxSlot)
		}
	}
	if m := t.Migration; m != nil {
		if m.CheckEvery <= 0 {
			return fmt.Errorf("cluster: migration checkEvery must be positive, got %g", m.CheckEvery)
		}
		if !(0 <= m.LowUtil && m.LowUtil < m.HighUtil && m.HighUtil <= 1) {
			return fmt.Errorf("cluster: migration thresholds need 0 <= lowUtil < highUtil <= 1, got low %g high %g", m.LowUtil, m.HighUtil)
		}
		if m.TransferDelay < 0 {
			return fmt.Errorf("cluster: negative migration transferDelay %g", m.TransferDelay)
		}
	}
	return nil
}

// checkCount rejects a non-positive count and one that takes sum, the
// named total so far, past max. Comparing with max-sum keeps the running
// sums from overflowing.
func checkCount(count, sum, max int, total string) error {
	if count < 1 {
		return fmt.Errorf("non-positive count %d", count)
	}
	if count > max-sum {
		return fmt.Errorf("count %d puts the %s past the bound of %d", count, total, max)
	}
	return nil
}

// validateFinite rejects a NaN or infinite time or threshold: NaN passes
// every ordered comparison in Validate, and an infinite horizon never
// ends a replication.
func (t *Topology) validateFinite() error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{{"horizon", t.Horizon}, {"warmup", t.Warmup}}
	for i, a := range t.Arrivals {
		fields = append(fields, field{fmt.Sprintf("arrival %d time", i), a.At})
	}
	if m := t.Migration; m != nil {
		fields = append(fields, field{"migration checkEvery", m.CheckEvery}, field{"migration highUtil", m.HighUtil},
			field{"migration lowUtil", m.LowUtil}, field{"migration transferDelay", m.TransferDelay})
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cluster: %s must be finite, got %g", f.name, f.v)
		}
	}
	return nil
}

// NumHosts returns the number of hosts the topology expands to.
func (t *Topology) NumHosts() int {
	n := 0
	for _, hg := range t.Hosts {
		n += hg.Count
	}
	return n
}

// TotalVCPUs returns the provisioned VCPU capacity across all hosts
// (admitted and parked slots alike).
func (t *Topology) TotalVCPUs() int {
	n := 0
	for _, hg := range t.Hosts {
		per := 0
		for _, s := range hg.Slots {
			per += s.VCPUs * s.Count
		}
		n += per * hg.Count
	}
	return n
}

// systemConfig expands one host group member into a core configuration:
// every slot replica becomes a composed VM sub-model, named slot<i>.
func (hg HostGroup) systemConfig() (core.SystemConfig, error) {
	cfg := core.SystemConfig{
		PCPUs:     hg.PCPUs,
		Timeslice: hg.Timeslice,
		Faults:    hg.Faults,
	}
	i := 0
	for s, slot := range hg.Slots {
		vmCfg, err := slot.VMConfig()
		if err != nil {
			return core.SystemConfig{}, fmt.Errorf("slot %d: %w", s, err)
		}
		for k := 0; k < slot.Count; k++ {
			c := vmCfg
			if c.Name == "" {
				c.Name = fmt.Sprintf("slot%d", i)
			} else if slot.Count > 1 {
				c.Name = fmt.Sprintf("%s%d", c.Name, k)
			}
			cfg.VMs = append(cfg.VMs, c)
			i++
		}
	}
	if err := cfg.Validate(); err != nil {
		return core.SystemConfig{}, err
	}
	return cfg, nil
}

// schedulerFactory resolves the group's algorithm.
func (hg HostGroup) schedulerFactory() (core.SchedulerFactory, error) {
	e := config.Experiment{Timeslice: hg.Timeslice, Scheduler: hg.Scheduler}
	return e.SchedulerFactory()
}

// SimOptions builds the replication controls for cluster experiments.
func (t *Topology) SimOptions() sim.Options {
	return sim.Options{
		Level:    t.Replications.Level,
		RelWidth: t.Replications.RelWidth,
		MinReps:  t.Replications.Min,
		MaxReps:  t.Replications.Max,
		Seed:     t.Seed,
	}
}
