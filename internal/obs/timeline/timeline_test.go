package timeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"vcpusim/internal/core"
	"vcpusim/internal/faults"
	"vcpusim/internal/rng"
	"vcpusim/internal/sched"
	"vcpusim/internal/workload"
)

func testConfig(pcpus int, plan *faults.Plan) core.SystemConfig {
	wl := workload.Spec{Load: rng.Uniform{Low: 1, High: 10}, SyncEveryN: 5}
	return core.SystemConfig{
		PCPUs:     pcpus,
		Timeslice: 30,
		VMs: []core.VMConfig{
			{Name: "VM1", VCPUs: 2, Workload: wl},
			{Name: "VM2", VCPUs: 1, Workload: wl},
		},
		Faults: plan,
	}
}

func newWorker(t *testing.T, cfg core.SystemConfig) *core.Worker {
	t.Helper()
	factory, err := sched.Factory("RRS", sched.Params{Timeslice: 30})
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWorker(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runTraced executes one traced replication and returns the trace JSON
// and the replication's metrics.
func runTraced(t *testing.T, cfg core.SystemConfig, horizon float64, seed uint64) ([]byte, map[string]float64) {
	t.Helper()
	w := newWorker(t, cfg)
	tr := New(w.System())
	tr.Install(w.Instance())
	w.SetFaultSink(tr)
	m, err := w.Run(horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish(horizon)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), m
}

type chromeTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	} `json:"traceEvents"`
}

// TestTrackerDeterministic pins the tentpole contract: the trace is a
// pure function of the seed (byte-identical across runs) and tracing
// does not perturb the replication's metrics.
func TestTrackerDeterministic(t *testing.T) {
	cfg := testConfig(2, nil)
	b1, m1 := runTraced(t, cfg, 500, 11)
	b2, m2 := runTraced(t, cfg, 500, 11)
	if !bytes.Equal(b1, b2) {
		t.Fatal("trace differs across identical runs")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("metrics differ across identical traced runs")
	}
	plain := newWorker(t, cfg)
	m3, err := plain.Run(500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m3) {
		t.Fatal("tracing perturbed the replication metrics")
	}
}

// TestTrackerChromeFormat loads the output as Chrome trace JSON and
// checks the structural invariants: metadata first, only known states
// on VCPU tracks, non-negative durations, intervals within the horizon.
func TestTrackerChromeFormat(t *testing.T) {
	b, _ := runTraced(t, testConfig(2, nil), 500, 7)
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	vcpuStates := map[string]bool{"ready": true, "running": true, "stalled": true, "preempted": true}
	sawMeta, sawComplete := 0, 0
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "M":
			sawMeta++
		case "X":
			sawComplete++
			if e.Dur < 0 || e.Ts < 0 || e.Ts+e.Dur > 500 {
				t.Fatalf("interval out of range: %+v", e)
			}
			if e.Pid == pidVCPUs && !vcpuStates[e.Name] {
				t.Fatalf("unknown VCPU state %q", e.Name)
			}
		}
	}
	// 2 process names + 3 VCPU + 2 PCPU thread names.
	if sawMeta != 7 {
		t.Fatalf("%d metadata events, want 7", sawMeta)
	}
	if sawComplete == 0 {
		t.Fatal("no complete events recorded")
	}
}

// TestTrackerFaultInstants injects a crash and requires its inject and
// recover instants (and a "down" interval on the PCPU track) in the
// trace.
func TestTrackerFaultInstants(t *testing.T) {
	plan := &faults.Plan{Faults: []faults.Spec{{
		Name:     "crash1",
		Kind:     faults.KindPCPUCrash,
		PCPU:     1,
		At:       100,
		Duration: &faults.Dist{Dist: "deterministic", Value: 80},
	}}}
	b, _ := runTraced(t, testConfig(2, plan), 500, 5)
	s := string(b)
	for _, want := range []string{`"inject crash1"`, `"recover crash1"`, `"down"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace missing %s:\n%s", want, s)
		}
	}
}
