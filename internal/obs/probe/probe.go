// Package probe implements deterministic time-series probes: read-only
// samplers that walk a worker's exported engine state at a fixed
// virtual-time cadence and record it into a columnar CSV series. A
// sampler attaches to the SAN executive's pre-fire hook, so it observes
// the marking's left limit at each cadence point — sample-and-hold over
// the piecewise-constant state trajectory — and never consults wall
// time, RNG state, or mutable model state: a probed replication's
// metrics are bit-identical to an unprobed one, and the series itself is
// a pure function of the replication seed.
package probe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vcpusim/internal/core"
	"vcpusim/internal/obs"
	"vcpusim/internal/san"
)

// Sampler records one replication's state series. Build one per probed
// replication with New, install its hook, run, then Finish and write.
type Sampler struct {
	sys  *core.System
	inst *san.Instance

	every float64
	next  float64

	buf    bytes.Buffer
	points int
	vc     core.InspectVCPU
	pc     core.PCPUView
}

// New builds a sampler over w's system with the given virtual-time
// cadence (ticks between samples; must be positive). The first sample is
// taken at t=0.
func New(w *core.Worker, every float64) (*Sampler, error) {
	if every <= 0 {
		return nil, fmt.Errorf("probe: non-positive cadence %g", every)
	}
	s := &Sampler{sys: w.System(), inst: w.Instance(), every: every}
	s.writeHeader()
	return s, nil
}

// Install sets the sampler's pre-fire hook on the worker's instance,
// replacing any installed hooks. To compose with other instrumentation
// (a timeline's post-fire hook, the structural checker), pass Hook() to
// san.Instance.SetFireHooks yourself.
func (s *Sampler) Install() {
	s.inst.SetFireHooks(s.hookFn, nil)
}

// Hook returns the pre-fire hook sampling the series, for manual
// composition via san.Instance.SetFireHooks.
func (s *Sampler) Hook() func(*san.Activity) { return s.hookFn }

func (s *Sampler) hookFn(*san.Activity) {
	now := s.inst.Now()
	for s.next <= now {
		s.sample(s.next)
		s.next += s.every
	}
}

// Finish emits the cadence points between the last firing and the
// horizon (the state is constant there) and terminates the series.
func (s *Sampler) Finish(horizon float64) {
	for s.next <= horizon {
		s.sample(s.next)
		s.next += s.every
	}
}

// writeHeader emits the columnar schema: virtual time, the system-wide
// instantaneous reward values, then per-VCPU and per-PCPU state.
func (s *Sampler) writeHeader() {
	s.buf.WriteString("t,avail,vutil,putil,queue,stalled")
	for i := 0; i < s.sys.NumVCPUs(); i++ {
		fmt.Fprintf(&s.buf, ",v%d.status,v%d.pcpu,v%d.rem", i, i, i)
	}
	for p := 0; p < s.sys.NumPCPUs(); p++ {
		fmt.Fprintf(&s.buf, ",p%d.vcpu,p%d.down,p%d.throttle", p, p, p)
	}
	s.buf.WriteByte('\n')
}

// sample appends one row at virtual time t, reading the model via the
// Peek-only inspection surface.
func (s *Sampler) sample(t float64) {
	nv, np := s.sys.NumVCPUs(), s.sys.NumPCPUs()
	active, busy, queued, stalled := 0, 0, 0, 0
	used := 0

	s.buf.WriteString(formatFloat(t))
	// First pass for the aggregate columns.
	for i := 0; i < nv; i++ {
		s.sys.InspectVCPU(i, &s.vc)
		if s.vc.Status.Active() {
			active++
		}
		if s.vc.Status == core.Busy {
			busy++
		}
		if s.vc.PCPU < 0 && s.vc.RemainingLoad > 0 {
			queued++
		}
		if s.vc.Stalled {
			stalled++
		}
	}
	for p := 0; p < np; p++ {
		s.sys.InspectPCPU(p, &s.pc)
		if s.pc.VCPU >= 0 {
			used++
		}
	}
	s.buf.WriteByte(',')
	s.buf.WriteString(formatFloat(float64(active) / float64(nv)))
	s.buf.WriteByte(',')
	s.buf.WriteString(formatFloat(float64(busy) / float64(nv)))
	s.buf.WriteByte(',')
	s.buf.WriteString(formatFloat(float64(used) / float64(np)))
	fmt.Fprintf(&s.buf, ",%d,%d", queued, stalled)

	for i := 0; i < nv; i++ {
		s.sys.InspectVCPU(i, &s.vc)
		fmt.Fprintf(&s.buf, ",%d,%d,%d", int(s.vc.Status), s.vc.PCPU, s.vc.RemainingLoad)
	}
	for p := 0; p < np; p++ {
		s.sys.InspectPCPU(p, &s.pc)
		down := 0
		if s.pc.Down {
			down = 1
		}
		fmt.Fprintf(&s.buf, ",%d,%d,%s", s.pc.VCPU, down, formatFloat(s.pc.Throttle))
	}
	s.buf.WriteByte('\n')
	s.points++
}

// formatFloat renders a float deterministically ('g', shortest
// round-trip form), the same convention the golden metric fixtures use.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SHA256 returns the hex digest of the series bytes.
func (s *Sampler) SHA256() string {
	sum := sha256.Sum256(s.buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// WriteFile writes the series to path (creating parent directories) and
// returns its manifest entry: name, path, row count, byte count, and
// sha256 — the digest `vcpusim manifest -check` gates on.
func (s *Sampler) WriteFile(name, path string) (obs.SeriesFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return obs.SeriesFile{}, fmt.Errorf("probe: create series dir: %w", err)
	}
	b := s.buf.Bytes()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return obs.SeriesFile{}, fmt.Errorf("probe: write series: %w", err)
	}
	return obs.SeriesFile{
		Name:   name,
		Path:   path,
		Points: s.points,
		Bytes:  int64(len(b)),
		SHA256: s.SHA256(),
	}, nil
}
