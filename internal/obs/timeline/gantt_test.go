package timeline

import (
	"fmt"
	"strings"
	"testing"

	"vcpusim/internal/core"
)

// fakeSource is a hand-set Source: the tests place PCPU occupants and
// observe.
type fakeSource struct {
	vcpus int
	pcpus []core.PCPUView
	name  string // every VCPU's name when set
}

func (f *fakeSource) NumVCPUs() int { return f.vcpus }
func (f *fakeSource) NumPCPUs() int { return len(f.pcpus) }
func (f *fakeSource) VCPUName(i int) string {
	if f.name != "" {
		return f.name
	}
	return fmt.Sprintf("VCPU%d", i)
}
func (f *fakeSource) InspectVCPU(int, *core.InspectVCPU)    {}
func (f *fakeSource) InspectPCPU(i int, dst *core.PCPUView) { *dst = f.pcpus[i] }

// hold puts vcpu (-1: none) on pcpu from tick at on.
type hold struct {
	at         float64
	pcpu, vcpu int
}

// occupancy records a timeline of vcpus VCPUs and pcpus PCPUs, idle
// until the holds place occupants (in time order), and finishes it at
// horizon.
func occupancy(vcpus, pcpus int, horizon float64, holds ...hold) *Tracker {
	src := &fakeSource{vcpus: vcpus, pcpus: make([]core.PCPUView, pcpus)}
	for p := range src.pcpus {
		src.pcpus[p] = core.PCPUView{ID: p, VCPU: -1}
	}
	tr := New(src)
	for i, h := range holds {
		src.pcpus[h.pcpu].VCPU = h.vcpu
		if i == len(holds)-1 || holds[i+1].at != h.at {
			tr.Observe(h.at)
		}
	}
	tr.Finish(horizon)
	return tr
}

func TestGantt(t *testing.T) {
	out := occupancy(2, 1, 20, hold{0, 0, 0}, hold{10, 0, 1}).Gantt(20, 1, 100)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("rows = %d, want 1:\n%s", len(lines), out)
	}
	row := lines[0]
	if !strings.Contains(row, "PCPU0") {
		t.Fatalf("row label missing: %q", row)
	}
	cells := strings.Fields(row)[1]
	if len(cells) != 20 {
		t.Fatalf("cells = %d, want 20: %q", len(cells), cells)
	}
	if cells[:10] != "0000000000" || cells[10:] != "1111111111" {
		t.Fatalf("occupancy = %q", cells)
	}
}

func TestGanttOpenInterval(t *testing.T) {
	// Never scheduled out: Finish closes the hold at the horizon.
	out := occupancy(3, 1, 10, hold{5, 0, 2}).Gantt(10, 1, 100)
	cells := strings.Fields(strings.TrimSpace(out))[1]
	if cells != ".....22222" {
		t.Fatalf("open interval = %q", cells)
	}
}

func TestGanttNIdleRows(t *testing.T) {
	out := occupancy(1, 3, 10, hold{0, 0, 0}).Gantt(10, 1, 100)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d, want 3 (one per PCPU):\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "..........") {
		t.Fatalf("idle PCPU row not blank: %q", lines[2])
	}
}

func TestGanttEmptyRecorder(t *testing.T) {
	out := occupancy(1, 1, 10).Gantt(10, 1, 100)
	if !strings.Contains(out, "PCPU0") {
		t.Fatalf("empty recorder output: %q", out)
	}
}

func TestGanttStepAndWidth(t *testing.T) {
	tr := occupancy(1, 1, 100, hold{0, 0, 0}, hold{100, 0, -1})
	out := tr.Gantt(100, 10, 5)
	cells := strings.Fields(strings.TrimSpace(out))[1]
	if len(cells) != 5 {
		t.Fatalf("width clamp: %d cells, want 5", len(cells))
	}
	// Step below 1 is clamped.
	out = tr.Gantt(3, 0, 100)
	if !strings.Contains(out, "000") {
		t.Fatalf("step clamp output: %q", out)
	}
}

// TestGanttSkipsZeroLength pins that an interval opened and closed at
// the same time (an intermediate state of one SAN instant) paints no
// cell, even one it starts inside of.
func TestGanttSkipsZeroLength(t *testing.T) {
	tr := New(&fakeSource{vcpus: 2, pcpus: []core.PCPUView{{VCPU: 1}}})
	tr.Observe(5)
	tr.Finish(5)
	if cells := strings.Fields(tr.Gantt(10, 2, 100))[1]; cells != "....." {
		t.Fatalf("zero-length hold painted: %q", cells)
	}
}

// TestOccupantChangeBetweenNamesakes pins that a PCPU track closes an
// interval when its occupant changes, even to a VCPU of the same display
// name (VM names need not be unique).
func TestOccupantChangeBetweenNamesakes(t *testing.T) {
	src := &fakeSource{vcpus: 2, pcpus: []core.PCPUView{{VCPU: 0}}, name: "VM.VCPU1"}
	tr := New(src)
	tr.Observe(0)
	src.pcpus[0].VCPU = 1
	tr.Observe(10)
	tr.Finish(20)
	if got := fmt.Sprint(tracks(tr)); got != "[2/0 VM.VCPU1 [0, 10) 2/0 VM.VCPU1 [10, 20)]" {
		t.Fatalf("PCPU track = %s", got)
	}
	if cells := strings.Fields(tr.Gantt(20, 1, 100))[1]; cells != "0000000000"+"1111111111" {
		t.Fatalf("occupancy = %q", cells)
	}
}

func TestVCPURunes(t *testing.T) {
	cases := map[int]rune{0: '0', 9: '9', 10: 'a', 35: 'z', 36: '#', 100: '#'}
	for id, want := range cases {
		if got := vcpuRune(id); got != want {
			t.Errorf("vcpuRune(%d) = %q, want %q", id, got, want)
		}
	}
}
