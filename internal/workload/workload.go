// Package workload implements the framework's workload model: the
// distribution of load durations (the time a VCPU needs to process one
// workload) and the synchronization-point policy (the paper's 1:N sync
// ratio, where every Nth workload carries a barrier synchronization point).
package workload

import (
	"fmt"
	"math"

	"vcpusim/internal/rng"
)

// SyncKind selects the synchronization mechanism a VM's sync points model.
// The paper's framework implements barriers only and lists "represent more
// synchronization mechanisms" as future work; the spinlock kind is this
// repository's extension covering the lock-holder-preemption scenario the
// paper's Section II.B motivates.
type SyncKind int

// Synchronization mechanisms.
const (
	// SyncBarrier is the paper's mechanism: a sync point stops workload
	// generation until all previously issued jobs complete.
	SyncBarrier SyncKind = iota
	// SyncSpinlock models a guest kernel critical section: a sync-point
	// workload holds a VM-wide lock while in flight. Generation is not
	// blocked, but whenever a lock holder is descheduled (the semantic
	// gap: the hypervisor preempted a lock-holding VCPU), the VM's other
	// BUSY VCPUs spin — they consume their PCPUs without making progress.
	SyncSpinlock
)

// String names the kind.
func (k SyncKind) String() string {
	switch k {
	case SyncBarrier:
		return "barrier"
	case SyncSpinlock:
		return "spinlock"
	default:
		return fmt.Sprintf("SyncKind(%d)", int(k))
	}
}

// Spec parameterizes a VM's workload generator.
type Spec struct {
	// Load is the distribution of load durations in clock ticks. Samples
	// are rounded up to at least one tick.
	Load rng.Distribution
	// SyncEveryN makes every Nth generated workload a synchronization
	// point (the paper's "1:N" sync ratio; 1:5 means one sync point per
	// five workloads). Zero disables synchronization points.
	SyncEveryN int
	// SyncProbabilistic, when true, draws sync points as independent
	// Bernoulli(1/SyncEveryN) trials instead of deterministically every
	// Nth workload.
	SyncProbabilistic bool
	// SyncKind selects the synchronization mechanism (barrier by
	// default).
	SyncKind SyncKind
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if s.Load == nil {
		return fmt.Errorf("workload: nil load distribution")
	}
	if s.SyncEveryN < 0 {
		return fmt.Errorf("workload: negative sync ratio %d", s.SyncEveryN)
	}
	if s.SyncProbabilistic && s.SyncEveryN == 0 {
		return fmt.Errorf("workload: probabilistic sync points need SyncEveryN > 0")
	}
	if s.SyncKind != SyncBarrier && s.SyncKind != SyncSpinlock {
		return fmt.Errorf("workload: unknown sync kind %d", int(s.SyncKind))
	}
	return nil
}

// String renders the spec in the paper's notation.
func (s Spec) String() string {
	if s.SyncEveryN == 0 {
		return fmt.Sprintf("load=%v, no sync", s.Load)
	}
	mode := ""
	if s.SyncProbabilistic {
		mode = " (probabilistic)"
	}
	return fmt.Sprintf("load=%v, sync=1:%d %v%s", s.Load, s.SyncEveryN, s.SyncKind, mode)
}

// Workload is one generated unit of work.
type Workload struct {
	// Load is the processing time in ticks (>= 1).
	Load int64
	// Sync marks the workload as a barrier synchronization point: the VM
	// stops generating work until all previously issued jobs complete.
	Sync bool
}

// Generator produces the workload stream of one VM. It is not
// goroutine-safe; each replication owns its generators.
type Generator struct {
	spec  Spec
	src   *rng.Source
	count int
}

// NewGenerator builds a generator for spec drawing from src. It returns an
// error if the spec is invalid or src is nil.
func NewGenerator(spec Spec, src *rng.Source) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("workload: nil random source")
	}
	return &Generator{spec: spec, src: src}, nil
}

// Reseed rewinds the generator for a new replication: its stream is
// re-initialized in place to the state a fresh NewGenerator(spec,
// parent.Split()) would hold when seed came from the same parent.Uint64()
// draw, and the workload counter restarts (so deterministic 1:N sync
// points realign to the stream). It never allocates.
func (g *Generator) Reseed(seed uint64) {
	g.src.Reseed(seed)
	g.count = 0
}

// Next produces the next workload.
func (g *Generator) Next() Workload {
	g.count++
	load := int64(math.Ceil(g.spec.Load.Sample(g.src)))
	if load < 1 {
		load = 1
	}
	w := Workload{Load: load}
	switch {
	case g.spec.SyncEveryN == 0:
		// no sync points
	case g.spec.SyncProbabilistic:
		w.Sync = g.src.Float64() < 1/float64(g.spec.SyncEveryN)
	default:
		w.Sync = g.count%g.spec.SyncEveryN == 0
	}
	return w
}
