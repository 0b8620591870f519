package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: vcpusim/internal/core
BenchmarkRunnerFig8-2   	     100	   4478108 ns/op	  2200000 events/s	    4096 B/op	    1325 allocs/op
BenchmarkRunnerFig8-2   	     100	   4000000 ns/op	  2500000 events/s	    4096 B/op	    1325 allocs/op
BenchmarkRunnerFig8-2   	     100	   9000000 ns/op	  1100000 events/s	    4096 B/op	    1325 allocs/op
BenchmarkRunnerTandem/stations=64-2  	      50	  20000000 ns/op	  7000000 events/s
PASS
ok  	vcpusim/internal/core	3.2s
`

func TestParseBenchMedianAndNormalize(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	fig8, ok := got["BenchmarkRunnerFig8"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped; got %v", names(got))
	}
	if fig8.Runs != 3 {
		t.Errorf("runs = %d, want 3", fig8.Runs)
	}
	// Median of {2.2e6, 2.5e6, 1.1e6} is 2.2e6 — the 1.1e6 outlier (a
	// loaded-machine artifact) must not drag the record down the way a
	// mean (1.93e6) would.
	if fig8.Metrics["events/s"] != 2200000 {
		t.Errorf("events/s = %g, want median 2200000", fig8.Metrics["events/s"])
	}
	if fig8.Metrics["ns/op"] != 4478108 {
		t.Errorf("ns/op = %g, want median 4478108", fig8.Metrics["ns/op"])
	}
	if fig8.Metrics["allocs/op"] != 1325 {
		t.Errorf("allocs/op = %g", fig8.Metrics["allocs/op"])
	}
	tandem, ok := got["BenchmarkRunnerTandem/stations=64"]
	if !ok || tandem.Runs != 1 || tandem.Metrics["events/s"] != 7000000 {
		t.Errorf("tandem = %+v, %v", tandem, ok)
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of even-length sample = %g, want 2.5", m)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkRunnerFig8-2":            "BenchmarkRunnerFig8",
		"BenchmarkRunnerFig8-16":           "BenchmarkRunnerFig8",
		"BenchmarkRunnerFig8":              "BenchmarkRunnerFig8",
		"BenchmarkRunnerTandem/n=64-2":     "BenchmarkRunnerTandem/n=64",
		"BenchmarkRunnerTandem/mode=fast-": "BenchmarkRunnerTandem/mode=fast-",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunMergesLabels(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	for _, label := range []string{"before", "after"} {
		if err := run([]string{"-out", out, "-label", label},
			strings.NewReader(sampleBench), io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := loadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"before", "after"} {
		if _, ok := doc[label].Benchmarks["BenchmarkRunnerFig8"]; !ok {
			t.Errorf("label %q missing fig8: %v", label, doc[label])
		}
	}
}

// TestRunRejectsDuplicateLabel is the silent-overwrite regression test:
// recording the same label twice must fail without -force, so a mistyped
// invocation cannot destroy a baseline.
func TestRunRejectsDuplicateLabel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-out", out, "-label", "pr7"},
		strings.NewReader(sampleBench), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-out", out, "-label", "pr7"},
		strings.NewReader(sampleBench), io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already recorded") {
		t.Fatalf("duplicate label accepted: %v", err)
	}
	if err := run([]string{"-out", out, "-label", "pr7", "-force"},
		strings.NewReader(sampleBench), io.Discard, io.Discard); err != nil {
		t.Fatalf("-force rejected: %v", err)
	}
}

// TestRunRecordsEnv pins the file shape: an env block plus normalized
// benchmark names, so a record always says what machine produced it.
func TestRunRecordsEnv(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-out", out, "-label", "pr7"},
		strings.NewReader(sampleBench), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc, err := loadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	rec := doc["pr7"]
	if rec.Env == nil || rec.Env.CPUs < 1 || rec.Env.GOMAXPROCS < 1 || rec.Env.GOOS == "" {
		t.Errorf("env not recorded: %+v", rec.Env)
	}
}

// TestLoadDocLegacyShape reads the flat pre-env shape the checked-in PR-5
// baseline uses, including its -GOMAXPROCS-suffixed benchmark names.
func TestLoadDocLegacyShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	legacy := map[string]map[string]entry{
		"pr5": {
			"BenchmarkRunnerFig8-2": {Runs: 3, Metrics: map[string]float64{
				"events/s": 655945.33, "allocs/op": 1325,
			}},
		},
	}
	buf, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := loadDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := doc["pr5"].Benchmarks["BenchmarkRunnerFig8"]
	if !ok {
		t.Fatalf("legacy benchmark missing under normalized name: %v", names(doc["pr5"].Benchmarks))
	}
	if e.Metrics["events/s"] != 655945.33 {
		t.Errorf("events/s = %g", e.Metrics["events/s"])
	}
	if doc["pr5"].Env != nil {
		t.Errorf("legacy shape grew an env: %+v", doc["pr5"].Env)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-out", out, "-label", "x"},
		strings.NewReader("no benchmarks here\n"), io.Discard, io.Discard); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunRequiresFlags(t *testing.T) {
	if err := run(nil, strings.NewReader(sampleBench), io.Discard, io.Discard); err == nil {
		t.Fatal("missing flags accepted")
	}
}

func writeDoc(t *testing.T, path, label string, benches map[string]entry) {
	t.Helper()
	doc := map[string]record{label: {Benchmarks: benches}}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	writeDoc(t, oldPath, "pr5", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 1000000, "allocs/op": 1325,
		}},
	})

	check := func(name string, benches map[string]entry, wantErr string) {
		t.Helper()
		newPath := filepath.Join(dir, name+".json")
		writeDoc(t, newPath, "pr7", benches)
		var sb strings.Builder
		err := runCompare(oldPath, newPath, "", "", 0.15, &sb)
		if wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected failure: %v\n%s", name, err, sb.String())
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error = %v, want %q\n%s", name, err, wantErr, sb.String())
		}
	}

	// 5x faster, allocs equal: green.
	check("faster", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 5000000, "allocs/op": 1325,
		}},
	}, "")
	// Throughput dip inside the band: green.
	check("band", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 900000, "allocs/op": 1325,
		}},
	}, "")
	// Throughput collapsed: red.
	check("slow", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 500000, "allocs/op": 1325,
		}},
	}, "regressed")
	// Allocation regression beyond the band: red even with throughput up.
	check("allocs", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 5000000, "allocs/op": 2000,
		}},
	}, "regressed")
	// B/op growth alone: informational, never gated (arena reservation
	// trades resident bytes for allocation count by design).
	check("bytes", map[string]entry{
		"BenchmarkRunnerFig8": {Runs: 3, Metrics: map[string]float64{
			"events/s": 1000000, "allocs/op": 1325, "B/op": 999999,
		}},
	}, "")
	// Disjoint benchmark sets: red, not vacuously green.
	check("disjoint", map[string]entry{
		"BenchmarkOther": {Runs: 3, Metrics: map[string]float64{"events/s": 1}},
	}, "no common benchmarks")
}

// TestCompareNamesMissingRows checks that a baseline row absent from the
// new record is named and counted, without failing the comparison.
func TestCompareNamesMissingRows(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	row := entry{Runs: 3, Metrics: map[string]float64{"events/s": 1000000}}
	writeDoc(t, oldPath, "pr5", map[string]entry{
		"BenchmarkRunnerFig8": row,
		"BenchmarkGone":       row,
	})
	writeDoc(t, newPath, "pr7", map[string]entry{"BenchmarkRunnerFig8": row})
	var sb strings.Builder
	if err := runCompare(oldPath, newPath, "", "", 0.15, &sb); err != nil {
		t.Fatalf("missing row failed the comparison: %v\n%s", err, sb.String())
	}
	got := sb.String()
	var named bool
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "BenchmarkGone ") && strings.Contains(line, "missing from") {
			named = true
		}
		if strings.HasPrefix(line, "BenchmarkRunnerFig8 ") && strings.Contains(line, "missing") {
			t.Errorf("shared row reported missing: %q", line)
		}
	}
	if !named {
		t.Errorf("missing row not named:\n%s", got)
	}
	if !strings.Contains(got, "1 benchmarks within 15% of "+oldPath+"[pr5], 1 baseline rows missing") {
		t.Errorf("summary does not count the missing row:\n%s", got)
	}
}

// TestCompareAgainstLegacyBaseline is the end-to-end gate shape used in
// CI: a fresh new-format record against the legacy flat baseline, with
// suffixed names on the old side only.
func TestCompareAgainstLegacyBaseline(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	legacy := map[string]map[string]entry{
		"pr5": {"BenchmarkRunnerFig8-2": {Runs: 3, Metrics: map[string]float64{
			"events/s": 655945.33, "allocs/op": 1325,
		}}},
	}
	buf, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := run([]string{"-out", newPath, "-label", "pr7"},
		strings.NewReader(sampleBench), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runCompare(oldPath, newPath, "", "", 0.15, &sb); err != nil {
		t.Fatalf("legacy-vs-new compare failed: %v\n%s", err, sb.String())
	}
}

func TestCompareAmbiguousLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "multi.json")
	doc := map[string]record{
		"a": {Benchmarks: map[string]entry{"BenchmarkX": {Runs: 1, Metrics: map[string]float64{"ns/op": 1}}}},
		"b": {Benchmarks: map[string]entry{"BenchmarkX": {Runs: 1, Metrics: map[string]float64{"ns/op": 1}}}},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err = runCompare(path, path, "", "", 0.15, &sb)
	if err == nil || !strings.Contains(err.Error(), "-old-label") {
		t.Fatalf("ambiguous labels not rejected: %v", err)
	}
	if err := runCompare(path, path, "a", "b", 0.15, &sb); err != nil {
		t.Fatalf("explicit labels rejected: %v", err)
	}
}

func names(m map[string]entry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
