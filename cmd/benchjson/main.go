// Command benchjson converts `go test -bench` output on stdin into a
// labeled JSON record, merging into an existing file so successive runs
// (e.g. "before" and "after" an optimization) accumulate side by side:
//
//	go test -bench X -count=10 -benchmem ./... | benchjson -out results/bench/BENCH.json -label after
//
// Each benchmark line's value/unit pairs (ns/op, B/op, allocs/op, plus
// custom b.ReportMetric units like events/s) are aggregated across -count
// repetitions by MEDIAN — one background-load spike perturbs the mean for
// the whole record, but leaves the median alone — and keyed by unit.
// Benchmark names are normalized by stripping the -GOMAXPROCS suffix go
// test appends, so records from machines with different core counts
// compare by name. Each label also records the environment it ran under
// (cpu count, GOMAXPROCS, platform): throughput numbers are only
// comparable within one environment, and the record says which.
//
// Compare two records and fail on regression beyond a tolerance band:
//
//	benchjson -compare old.json new.json -tolerance 0.15
//
// For throughput units (anything ending in /s) new must be at least
// old×(1−tolerance); for cost units (ns/op, allocs/op) new must be at
// most old×(1+tolerance). B/op is reported but never gated: the engine
// deliberately trades reserved arena bytes for allocation count, so
// resident-byte growth alongside falling allocs/op is a design outcome,
// not a regression. Non-zero exit and a per-benchmark listing on any
// violation. Both the current shape and the legacy flat shape
// (label → benchmark → entry, no env) are read.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// entry is one benchmark's aggregated result under one label.
type entry struct {
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// environment records what the numbers were measured on.
type environment struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// record is one label's results: the environment plus the benchmarks.
type record struct {
	Env        *environment     `json:"env,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out, msg io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "JSON file to merge results into")
	label := fs.String("label", "", "label to record this run under, e.g. before/after")
	force := fs.Bool("force", false, "overwrite an existing label instead of erroring")
	compare := fs.Bool("compare", false, "compare mode: args are old.json new.json")
	tolerance := fs.Float64("tolerance", 0.15, "allowed relative regression in compare mode")
	oldLabel := fs.String("old-label", "", "label to read from old.json (default: its only label)")
	newLabel := fs.String("new-label", "", "label to read from new.json (default: its only label)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first positional argument; re-parse the tail so
	// `-compare old.json new.json -tolerance 0.15` reads naturally.
	var files []string
	for rest := fs.Args(); len(rest) > 0; rest = fs.Args() {
		if !strings.HasPrefix(rest[0], "-") {
			files = append(files, rest[0])
			rest = rest[1:]
		}
		if err := fs.Parse(rest); err != nil {
			return err
		}
	}
	if *compare {
		if len(files) != 2 {
			return fmt.Errorf("-compare needs exactly two file arguments, got %d", len(files))
		}
		return runCompare(files[0], files[1], *oldLabel, *newLabel, *tolerance, out)
	}
	if *outPath == "" || *label == "" {
		return fmt.Errorf("-out and -label are required (or use -compare old.json new.json)")
	}
	return runRecord(*outPath, *label, *force, in, msg)
}

func runRecord(outPath, label string, force bool, in io.Reader, msg io.Writer) error {
	parsed, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(parsed) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	doc, err := loadDoc(outPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if doc == nil {
		doc = map[string]record{}
	}
	if _, dup := doc[label]; dup && !force {
		return fmt.Errorf("label %q already recorded in %s; pick a new label or pass -force", label, outPath)
	}
	doc[label] = record{
		Env: &environment{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Benchmarks: parsed,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(msg, "benchjson: recorded %d benchmarks under %q in %s\n", len(parsed), label, outPath)
	return nil
}

// loadDoc reads a benchjson file in either shape. Legacy files map labels
// straight to benchmark entries with no env; they are detected by the
// absence of a "benchmarks" key and lifted into records.
func loadDoc(path string) (map[string]record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]record
	if err := json.Unmarshal(buf, &doc); err == nil {
		legacy := false
		for _, r := range doc {
			if r.Benchmarks == nil {
				legacy = true
				break
			}
		}
		if !legacy {
			return normalizeDoc(doc), nil
		}
	}
	var flat map[string]map[string]entry
	if err := json.Unmarshal(buf, &flat); err != nil {
		return nil, fmt.Errorf("%s is not a benchjson file: %w", path, err)
	}
	doc = make(map[string]record, len(flat))
	for label, benches := range flat {
		doc[label] = record{Benchmarks: benches}
	}
	return normalizeDoc(doc), nil
}

// normalizeDoc strips GOMAXPROCS suffixes from stored benchmark names, so
// files written before normalization (or by hand) still compare by name.
func normalizeDoc(doc map[string]record) map[string]record {
	for label, r := range doc {
		norm := make(map[string]entry, len(r.Benchmarks))
		for name, e := range r.Benchmarks {
			norm[normalizeName(name)] = e
		}
		r.Benchmarks = norm
		doc[label] = r
	}
	return doc
}

// normalizeName strips the trailing -GOMAXPROCS that `go test` appends to
// every benchmark name ("BenchmarkRunnerFig8-2" → "BenchmarkRunnerFig8").
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBench extracts benchmark result lines: name, iteration count, then
// (value, unit) pairs. Repeated lines for one name (go test -count) are
// reduced to their per-unit median.
func parseBench(in io.Reader) (map[string]entry, error) {
	type samples struct {
		runs    int
		metrics map[string][]float64
	}
	acc := map[string]*samples{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkX ... --- FAIL" shapes
		}
		name := normalizeName(fields[0])
		s := acc[name]
		if s == nil {
			s = &samples{metrics: map[string][]float64{}}
			acc[name] = s
		}
		s.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			s.metrics[fields[i+1]] = append(s.metrics[fields[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]entry, len(acc))
	for name, s := range acc {
		e := entry{Runs: s.runs, Metrics: make(map[string]float64, len(s.metrics))}
		for unit, vals := range s.metrics {
			e.Metrics[unit] = median(vals)
		}
		out[name] = e
	}
	return out, nil
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// higherIsBetter classifies a metric unit: rates (events/s, firings/s, any
// x/s) improve upward, per-op costs (ns/op, B/op, allocs/op) downward.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s")
}

// pickLabel resolves which label to compare from a record file: the
// requested one, or the file's only label.
func pickLabel(doc map[string]record, want, path string) (string, error) {
	if want != "" {
		if _, ok := doc[want]; !ok {
			return "", fmt.Errorf("label %q not in %s", want, path)
		}
		return want, nil
	}
	if len(doc) == 1 {
		for label := range doc {
			return label, nil
		}
	}
	labels := make([]string, 0, len(doc))
	for label := range doc {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return "", fmt.Errorf("%s holds %d labels %v; pick one with -old-label/-new-label", path, len(doc), labels)
}

func runCompare(oldPath, newPath, oldLabel, newLabel string, tolerance float64, out io.Writer) error {
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("tolerance %g out of range [0, 1)", tolerance)
	}
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return err
	}
	oldL, err := pickLabel(oldDoc, oldLabel, oldPath)
	if err != nil {
		return err
	}
	newL, err := pickLabel(newDoc, newLabel, newPath)
	if err != nil {
		return err
	}
	oldB, newB := oldDoc[oldL].Benchmarks, newDoc[newL].Benchmarks
	if oe, ne := oldDoc[oldL].Env, newDoc[newL].Env; oe == nil || ne == nil ||
		oe.CPUs != ne.CPUs || oe.GOMAXPROCS != ne.GOMAXPROCS {
		fmt.Fprintf(out, "benchjson: note: environments differ or are unrecorded; absolute throughput is indicative, the tolerance band absorbs machine variance\n")
	}

	names := make([]string, 0, len(oldB))
	var missing []string
	for name := range oldB {
		if _, ok := newB[name]; ok {
			names = append(names, name)
		} else {
			missing = append(missing, name)
		}
	}
	sort.Strings(names)
	sort.Strings(missing)
	if len(names) == 0 {
		return fmt.Errorf("no common benchmarks between %s[%s] and %s[%s]", oldPath, oldL, newPath, newL)
	}

	var regressions int
	for _, name := range names {
		units := make([]string, 0, len(oldB[name].Metrics))
		for unit := range oldB[name].Metrics {
			if _, ok := newB[name].Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ov, nv := oldB[name].Metrics[unit], newB[name].Metrics[unit]
			ratio := 0.0
			if ov != 0 {
				ratio = nv / ov
			}
			var status string
			switch {
			case unit == "B/op":
				// Reserved arena bytes rise as allocation count falls —
				// intentional, so informational only.
				status = "info"
			case higherIsBetter(unit) && nv < ov*(1-tolerance),
				!higherIsBetter(unit) && nv > ov*(1+tolerance):
				status = "REGRESSION"
				regressions++
			default:
				status = "ok"
			}
			fmt.Fprintf(out, "%-50s %-12s %14.2f -> %14.2f  (%.3fx)  %s\n",
				name, unit, ov, nv, ratio, status)
		}
	}
	// A baseline row the new record lacks is named, not gated: rows go
	// when the code they measure is deleted.
	for _, name := range missing {
		fmt.Fprintf(out, "%-50s missing from %s[%s]  info\n", name, newPath, newL)
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%% vs %s[%s]", regressions, tolerance*100, oldPath, oldL)
	}
	fmt.Fprintf(out, "benchjson: %d benchmarks within %.0f%% of %s[%s], %d baseline rows missing\n",
		len(names), tolerance*100, oldPath, oldL, len(missing))
	return nil
}
