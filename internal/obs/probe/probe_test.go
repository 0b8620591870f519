package probe

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

func testConfig(pcpus int) core.SystemConfig {
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return core.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: 1, Workload: wl},
		},
	}
}

func newWorker(t *testing.T, pcpus int) *core.Worker {
	t.Helper()
	factory, err := sched.Factory("RRS", sched.Params{Timeslice: 30})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorker(testConfig(pcpus), factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runProbed executes one probed replication and returns the series bytes
// and the replication's metrics.
func runProbed(t *testing.T, every, horizon float64, seed uint64) ([]byte, map[string]float64) {
	t.Helper()
	w := newWorker(t, 2)
	s, err := New(w, every)
	if err != nil {
		t.Fatal(err)
	}
	s.Install()
	m, err := w.Run(horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Finish(horizon)
	return append([]byte(nil), s.buf.Bytes()...), m
}

// TestSamplerDeterministic pins the tentpole contract: the probe series
// is a pure function of the replication seed (bit-identical across
// runs), and probing does not perturb the replication — the metrics of
// a probed run equal those of an unprobed one exactly.
func TestSamplerDeterministic(t *testing.T) {
	b1, m1 := runProbed(t, 25, 500, 11)
	b2, m2 := runProbed(t, 25, 500, 11)
	if !bytes.Equal(b1, b2) {
		t.Fatal("probe series differs across identical runs")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("metrics differ across identical probed runs")
	}
	plain := newWorker(t, 2)
	m3, err := plain.Run(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m3) {
		t.Fatal("probing perturbed the replication metrics")
	}
}

// TestSamplerCadence checks sample-and-hold coverage: one row per
// cadence point in [0, horizon], flushed through Finish even past the
// last firing.
func TestSamplerCadence(t *testing.T) {
	b, _ := runProbed(t, 50, 500, 3)
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	wantRows := 11 // t = 0, 50, ..., 500
	if len(lines) != wantRows+1 {
		t.Fatalf("%d lines, want header + %d rows:\n%s", len(lines), wantRows, b)
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, ln := range lines {
		if got := strings.Count(ln, ",") + 1; got != cols {
			t.Fatalf("row %d has %d columns, header has %d", i, got, cols)
		}
	}
	if !strings.HasPrefix(lines[0], "t,avail,vutil,putil,queue,stalled") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Fatalf("first row not at t=0: %q", lines[1])
	}
	if !strings.HasPrefix(lines[wantRows], "500,") {
		t.Fatalf("last row not at the horizon: %q", lines[wantRows])
	}
}

// TestWriteFile checks the manifest entry: points, bytes, and digest
// must describe the written file exactly.
func TestWriteFile(t *testing.T) {
	w := newWorker(t, 2)
	s, err := New(w, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.Install()
	if _, err := w.Run(400, 1); err != nil {
		t.Fatal(err)
	}
	s.Finish(400)
	path := filepath.Join(t.TempDir(), "series", "probe.csv")
	sf, err := s.WriteFile("probe", path)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Name != "probe" || sf.Path != path {
		t.Fatalf("series file = %+v", sf)
	}
	if sf.Points != 5 || sf.Points != s.points {
		t.Fatalf("points = %d (sampler %d), want 5", sf.Points, s.points)
	}
	if sf.Bytes != int64(len(s.buf.Bytes())) || len(sf.SHA256) != 64 {
		t.Fatalf("series file = %+v", sf)
	}
	if sf.SHA256 != s.SHA256() {
		t.Fatal("digest mismatch")
	}
}

// TestNewRejectsBadCadence pins the validation.
func TestNewRejectsBadCadence(t *testing.T) {
	w := newWorker(t, 2)
	if _, err := New(w, 0); err == nil {
		t.Fatal("cadence 0 accepted")
	}
	if _, err := New(w, -1); err == nil {
		t.Fatal("negative cadence accepted")
	}
}
