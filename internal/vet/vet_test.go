package vet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fig8Config is a minimal valid experiment configuration (the paper's
// Figure 8 setup under RCS).
const fig8Config = `{
  "pcpus": 2,
  "timeslice": 30,
  "scheduler": {"name": "RCS"},
  "horizonTicks": 100,
  "seed": 7,
  "vms": [
    {"name": "VM1", "vcpus": 2, "load": {"dist": "uniform", "low": 1, "high": 10}, "syncEveryN": 5},
    {"name": "VM2", "vcpus": 1, "load": {"dist": "uniform", "low": 1, "high": 10}, "syncEveryN": 5}
  ]
}`

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestModelLintCleanConfig(t *testing.T) {
	var b strings.Builder
	args := []string{"-nosource", "-config", writeConfig(t, fig8Config)}
	if err := Run(args, &b); err != nil {
		t.Fatalf("clean config flagged: %v\n%s", err, b.String())
	}
	for _, want := range []string{"findings: none", "0 violations"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output missing %q:\n%s", want, b.String())
		}
	}
}

// TestCrashConfigVerifies runs the model checks on the shipped Figure 8
// configuration with a pcpu_crash fault plan: the crash gate's
// cross-submodel links must be backed by joins into the Faults submodel.
func TestCrashConfigVerifies(t *testing.T) {
	var b strings.Builder
	args := []string{"-nosource", "-config", filepath.Join("..", "..", "cmd", "vcpusim", "testdata", "fig8_crash.json")}
	if err := Run(args, &b); err != nil {
		t.Fatalf("crash config flagged: %v\n%s", err, b.String())
	}
	for _, want := range []string{"Faults/Down_PCPU1", "findings: none", "0 violations"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output missing %q:\n%s", want, b.String())
		}
	}
}

func TestModelLintMissingConfig(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-nosource", "-config", "does/not/exist.json"}, &b); err == nil {
		t.Fatal("missing config accepted")
	}
}

func TestFixturesDemo(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-fixtures"}, &b); err != nil {
		t.Fatalf("fixture demo failed: %v", err)
	}
	out := b.String()
	// Every check kind fires on its defective fixture and every clean
	// counterpart passes.
	for _, want := range []string{
		"case-weights", "unknown-link", "place-never-read",
		"place-never-written", "dead-activity", "instant-cycle",
		"unshared-join", "reward-ref", "isolated-place", ": clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fixture demo missing %q:\n%s", want, out)
		}
	}
}

func TestSourceLintRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Run([]string{"-root", root}, &b); err != nil {
		t.Fatalf("repository source flagged: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "ok") {
		t.Errorf("output missing ok line:\n%s", b.String())
	}
}

func TestSourceLintFindsDefects(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/fake\n\ngo 1.22\n",
		"internal/des/clock.go": `package des

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	err := Run([]string{"-root", root}, &b)
	if err == nil {
		t.Fatalf("defective module passed:\n%s", b.String())
	}
	if !strings.Contains(err.Error(), "problem") {
		t.Errorf("err = %v, want problem count", err)
	}
	if !strings.Contains(b.String(), "wall-clock") {
		t.Errorf("output missing wall-clock finding:\n%s", b.String())
	}
}

func TestUnexpectedArgument(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"extra"}, &b); err == nil {
		t.Fatal("positional argument accepted")
	}
}

// TestStructuralBuiltinSuite is the CI gate: with no -config, every shipped
// model variant
// (Figure 8 barrier, spinlock, fault campaign with a disabled spec) must
// prove bounded and deadlock-free, its conservation law must verify, and
// the conformance replay must be violation-free. The rendered report is
// pinned as a golden file so certificate regressions (a place silently
// losing its bound proof) surface as a diff.
func TestStructuralBuiltinSuite(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-nosource"}, &b); err != nil {
		t.Fatalf("structural gate failed: %v\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"fig8-barrier", "fig8-spinlock", "faults-campaign",
		"boundedness: PROVED", "deadlock: PROVED FREE",
		"pcpu-count", "conformance:", "0 violations",
		"disabled:", // the dormant spec's injector is excluded, not dead
	} {
		if !strings.Contains(out, want) {
			t.Errorf("structural report missing %q", want)
		}
	}
	if strings.Contains(out, "dead-activity") {
		t.Errorf("disabled injector reported dead:\n%s", out)
	}

	golden := filepath.Join("testdata", "structural.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden report missing (run with -update): %v", err)
	}
	if string(want) != out {
		t.Errorf("structural report drifted from golden (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestStructuralConfig verifies -config selects the model to verify: the
// fig8 experiment model passes the full structural gate.
func TestStructuralConfig(t *testing.T) {
	var b strings.Builder
	args := []string{"-nosource", "-config", writeConfig(t, fig8Config)}
	if err := Run(args, &b); err != nil {
		t.Fatalf("fig8 config failed structural gate: %v\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "boundedness: PROVED") {
		t.Errorf("report missing boundedness proof:\n%s", b.String())
	}
}

// TestStructuralJSONCleanSilent: -nosource -json on the passing suite
// emits nothing — the machine-readable stream carries findings only.
func TestStructuralJSONCleanSilent(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-nosource", "-json"}, &b); err != nil {
		t.Fatalf("structural gate failed: %v\n%s", err, b.String())
	}
	if b.Len() != 0 {
		t.Errorf("clean JSON run produced output:\n%s", b.String())
	}
}

// TestJSONFindings checks the JSONL schema on a defective module: one
// valid JSON object per line, with the documented fields populated, and
// the decorative ok/report prose suppressed.
func TestJSONFindings(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/fake\n\ngo 1.22\n",
		"internal/des/clock.go": `package des

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	err := Run([]string{"-json", "-root", root}, &b)
	if err == nil {
		t.Fatalf("defective module passed:\n%s", b.String())
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no JSON findings emitted")
	}
	for _, line := range lines {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if f.Tool != "golint" || f.Check == "" || f.Message == "" || f.File == "" || f.Line == 0 {
			t.Errorf("finding incomplete: %+v", f)
		}
	}
}

// TestJSONFixturesDemo: the fixture demo in JSON mode streams every
// model finding as a sanalyze finding, including counterexample traces.
func TestJSONFixturesDemo(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-fixtures", "-json"}, &b); err != nil {
		t.Fatalf("fixture demo failed: %v", err)
	}
	sawTrace := false
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line is not valid JSON: %q: %v", line, err)
		}
		if f.Tool != "sanalyze" {
			t.Errorf("tool = %q, want sanalyze: %+v", f.Tool, f)
		}
		if len(f.Trace) > 0 {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Error("no finding carried a counterexample trace")
	}
}

// TestFixturesDemoStructural: the human fixture demo shows the proof-level
// seeded defects firing with counterexamples, and the clean counterparts
// passing.
func TestFixturesDemoStructural(t *testing.T) {
	var b strings.Builder
	if err := Run([]string{"-fixtures"}, &b); err != nil {
		t.Fatalf("fixture demo failed: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"\nunbounded-place-bad:\n", "unbounded-place",
		"\ndeadlock-bad:\n", "deadlock", "counterexample:",
		"\ndead-activity-bad:\n", "dead-activity",
		"\nconservation-bad:\n", "conservation",
		"\ndeadlock-ok: clean", "\ndisabled-not-dead: clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fixture demo missing %q:\n%s", want, out)
		}
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := t.TempDir()
	nested := filepath.Join(root, "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := findModuleRoot(nested)
	if err != nil {
		t.Fatal(err)
	}
	// Resolve symlinks before comparing (macOS /tmp style indirection).
	wantResolved, _ := filepath.EvalSymlinks(root)
	gotResolved, _ := filepath.EvalSymlinks(got)
	if gotResolved != wantResolved {
		t.Errorf("root = %q, want %q", got, root)
	}
}
