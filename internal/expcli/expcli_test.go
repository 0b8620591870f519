package expcli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcpusim/internal/obs"
)

// TestRunWritesManifestAndSpans drives the full CLI on a quick Figure 8
// and checks the observability surface end to end: a schema-valid
// manifest with per-cell counters that pass the gate, hashed CSV
// outputs, and a parseable span stream whose cell.end count matches the
// manifest.
func TestRunWritesManifestAndSpans(t *testing.T) {
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.jsonl")
	var out bytes.Buffer
	err := Run([]string{
		"-figure", "8", "-quick", "-engine", "fast",
		"-manifest", dir, "-spans", spans, "-csv", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("Figure 8")) {
		t.Error("table output missing")
	}

	m, err := obs.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCounters(); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "vcpusim experiments" || m.Schema != obs.ManifestSchemaVersion {
		t.Errorf("manifest header: %+v", m)
	}
	if len(m.Cells) != 12 { // 3 algorithms x 4 PCPU counts
		t.Errorf("%d cells, want 12", len(m.Cells))
	}
	if m.Params["figure"] != "8" || m.Params["quick"] != true {
		t.Errorf("params not recorded: %+v", m.Params)
	}
	if len(m.Outputs) != 1 || m.Outputs[0].Path != "figure_8.csv" || m.Outputs[0].SHA256 == "" {
		t.Errorf("outputs not hashed: %+v", m.Outputs)
	}
	if m.WallNS <= 0 {
		t.Error("manifest missing wall time")
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ends := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("corrupt span line: %v", err)
		}
		if e.Kind == obs.KindCellEnd {
			ends++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if ends != len(m.Cells) {
		t.Errorf("%d cell.end spans, manifest has %d cells", ends, len(m.Cells))
	}
}

// TestRunNoTelemetryByDefault verifies the default path writes nothing.
func TestRunNoTelemetryByDefault(t *testing.T) {
	var out bytes.Buffer
	if err := Run([]string{"-figure", "9", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no table rendered")
	}
}

// TestRunRejectsUnknownFigure keeps the CLI contract.
func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := Run([]string{"-figure", "nope", "-quick"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := Run([]string{"-figure", "42", "-quick"}, os.Stderr); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunFigure9Quick(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-figure", "9", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 9", "set1 (2+2 VCPUs)", "RRS", "SCS", "RCS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure10WritesCSV(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := Run([]string{"-figure", "10", "-quick", "-csv", dir}, &b); err != nil {
		t.Fatal(err)
	}
	// Figure 10 produces two tables -> two CSVs.
	for _, name := range []string{"figure_10_1.csv", "figure_10_2.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if !strings.Contains(string(data), "mean,halfwidth") {
			t.Errorf("%s lacks CSV header", name)
		}
	}
}

func TestRunLockAblationQuick(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-figure", "lock", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "spin fraction") {
		t.Errorf("lock ablation output:\n%s", b.String())
	}
}

func TestRunEnginesQuick(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-figure", "engines", "-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max |SAN - fast|") {
		t.Errorf("engines output:\n%s", b.String())
	}
}

func TestRunSANEngineFlag(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-figure", "9", "-quick", "-engine", "san"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 9") {
		t.Errorf("san-engine output:\n%s", b.String())
	}
}
