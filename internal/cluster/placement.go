package cluster

import "fmt"

// HostLoad is one host's entry in the fleet view a placement policy
// sees: static capacity plus the orchestrator's admission bookkeeping,
// kept current as slots change phase. It carries no
// model internals — policies are deliberately restricted to
// coarse-grained cluster state so every policy is trivially
// deterministic.
type HostLoad struct {
	// ID is the host's cluster-wide index.
	ID int
	// PCPUs is the host's physical core count.
	PCPUs int
	// AdmittedVCPUs is the VCPU width committed to the host: resident
	// VMs, ones still draining away, and slots reserved for inbound
	// migrations.
	AdmittedVCPUs int
	// MaxFree is the width of the host's widest free parked slot, 0 when
	// none is free: the host fits a VM of width w exactly when
	// MaxFree >= w.
	MaxFree int
}

// PlacementPolicy routes one VM arrival to a host. Place returns the
// chosen host's ID, or -1 to queue the VM until capacity frees up.
// hosts is the orchestrator's fleet view, ordered by ID and identical
// for every policy; a policy reads it and must not modify it. A policy
// is a pure function of the view (any internal state — a round-robin
// cursor — must depend only on its own past decisions).
type PlacementPolicy interface {
	Name() string
	Place(vcpus int, hosts []HostLoad) int
}

// policyFor resolves a placement policy name (case-insensitive).
func policyFor(name string) (PlacementPolicy, error) {
	switch normalize(name) {
	case "round-robin", "rr":
		return &roundRobin{}, nil
	case "least-loaded", "ll":
		return leastLoaded{}, nil
	case "first-fit", "ff":
		return firstFit{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %q (have round-robin, least-loaded, first-fit)", name)
	}
}

func normalize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}

// roundRobin cycles through hosts, continuing after the last host it
// placed on; VMs spread evenly regardless of width.
type roundRobin struct{ next int }

func (r *roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Place(vcpus int, hosts []HostLoad) int {
	n := len(hosts)
	if n == 0 {
		return -1
	}
	for k := 0; k < n; k++ {
		h := hosts[(r.next+k)%n]
		if h.MaxFree >= vcpus {
			r.next = (h.ID + 1) % n
			return h.ID
		}
	}
	return -1
}

// leastLoaded picks the fitting host with the lowest admitted-VCPUs to
// PCPUs ratio, lowest ID on ties.
type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Place(vcpus int, hosts []HostLoad) int {
	best, bestLoad := -1, 0.0
	for _, h := range hosts {
		if h.MaxFree < vcpus {
			continue
		}
		load := float64(h.AdmittedVCPUs) / float64(h.PCPUs)
		if best < 0 || load < bestLoad {
			best, bestLoad = h.ID, load
		}
	}
	return best
}

// firstFit packs: the lowest-ID host that fits.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }

func (firstFit) Place(vcpus int, hosts []HostLoad) int {
	for _, h := range hosts {
		if h.MaxFree >= vcpus {
			return h.ID
		}
	}
	return -1
}

// PlacementPolicies lists the built-in policy names in display order.
func PlacementPolicies() []string {
	return []string{"round-robin", "least-loaded", "first-fit"}
}
