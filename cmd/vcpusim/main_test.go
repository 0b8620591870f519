package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresConfig(t *testing.T) {
	if err := run(nil, os.Stderr); err == nil {
		t.Fatal("missing -config accepted")
	}
}

func TestRunUnknownConfigPath(t *testing.T) {
	if err := run([]string{"-config", "does/not/exist.json"}, os.Stderr); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunReplicatedOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-config", "testdata/fig8.json"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"scheduler: RCS", "replications:", "avail/vm0/vcpu0", "putil/avg", "95% confidence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVetSubcommand(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"vet", "-nosource", "-config", "testdata/fig8.json"}, &b); err != nil {
		t.Fatalf("vet on shipped config: %v\n%s", err, b.String())
	}
	for _, want := range []string{"findings: none", "0 violations"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("vet output missing %q:\n%s", want, b.String())
		}
	}
}

func TestRunSingleWithGanttAndTrace(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-config", "testdata/fig8.json", "-single", "-gantt"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"PCPU occupancy", "avail/avg"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The JSONL event trace is gone: `vcpusim trace -out` exports the
	// timeline.
	err := run([]string{"-config", "testdata/fig8.json", "-single", "-trace", filepath.Join(t.TempDir(), "trace.jsonl")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -trace") {
		t.Errorf("-trace: err = %v, want an unknown-flag error", err)
	}
}

// TestSingleGanttGoldenFig8 byte-pins `vcpusim -single -gantt` on the
// shipped Figure 8 config: the metrics and the PCPU occupancy chart are
// pure functions of the config and seed.
func TestSingleGanttGoldenFig8(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-config", "testdata/fig8.json", "-single", "-gantt"}, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gantt_fig8.golden.txt", []byte(b.String()))
}

func TestRunSingleSANEngineRejectsTracing(t *testing.T) {
	// Build a SAN-engine config on the fly.
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "san.json")
	data, err := os.ReadFile("testdata/fig8.json")
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(data), `"seed": 7,`, `"seed": 7, "engine": "san",`, 1)
	if err := os.WriteFile(cfgPath, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-config", cfgPath, "-single", "-gantt"}, &b); err == nil {
		t.Fatal("SAN engine with tracing accepted")
	}
	// Without tracing the SAN engine works.
	b.Reset()
	if err := run([]string{"-config", cfgPath, "-single"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "avail/avg") {
		t.Errorf("SAN single run output:\n%s", b.String())
	}
}
