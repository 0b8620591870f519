package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runOn lints a synthetic module tree.
func runOn(t *testing.T, files map[string]string) []Finding {
	t.Helper()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module example.com/fake\n\ngo 1.22\n"
	}
	findings, err := Run(writeTree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestRandFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/x/x.go": `package x

import (
	"math/rand"
	mrand "math/rand/v2"
	crand "crypto/rand"
)

var _ = rand.Int
var _ = mrand.Int
var _ = crand.Reader
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (v1 and v2 imports, not crypto/rand)", got)
	}
	for _, fd := range got {
		if fd.Rule != RuleGlobalRand {
			t.Errorf("rule = %q, want %q", fd.Rule, RuleGlobalRand)
		}
		if !strings.Contains(fd.Message, "internal/rng") {
			t.Errorf("message should point at the sanctioned package: %q", fd.Message)
		}
	}
}

func TestClockFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/des/clock.go": `package des

import (
	clock "time"
	"time"
)

var a = time.Now()
var b = clock.Since(a)
var c = time.Until(a)
var d time.Duration // type reference, not a clock read
var e = time.Unix(0, 0) // deterministic constructor, allowed
`,
	})
	if len(got) != 3 {
		t.Fatalf("findings = %v, want 3 (Now, aliased Since, Until)", got)
	}
	wantSel := []string{"Now", "Since", "Until"}
	for i, fd := range got {
		if fd.Rule != RuleWallClock {
			t.Errorf("rule = %q, want %q", fd.Rule, RuleWallClock)
		}
		if !strings.Contains(fd.Message, "time."+wantSel[i]) {
			t.Errorf("finding %d message = %q, want mention of time.%s", i, fd.Message, wantSel[i])
		}
	}
}

func TestClockFindingsNoTimeImport(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/des/clock.go": `package des

type time struct{}

func (time) Now() int { return 0 }

var x = time{}.Now() // local type named time, no "time" import
`,
	})
	if len(got) != 0 {
		t.Fatalf("findings = %v, want none without a time import", got)
	}
}

// TestObsClockFindings: outside the simulation scope, direct wall-clock
// reads are flagged by the obs-clock rule (route through obs.Clock);
// internal/obs itself is exempt.
func TestObsClockFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"cmd/tool/main.go": `package main

import (
	"time"

	"example.com/fake/internal/obs"
)

func main() {
	_ = time.Now()
	_ = obs.Clock()
}
`,
		"internal/obs/obs.go": `package obs

import "time"

func Clock() time.Duration { return time.Since(start) }

var start = time.Now()
`,
	})
	if len(got) != 1 || got[0].Rule != RuleObsClock {
		t.Fatalf("findings = %v, want exactly one obs-clock (cmd flagged, obs exempt)", got)
	}
	if !strings.Contains(got[0].Message, "obs.Clock") {
		t.Errorf("message should point at obs.Clock: %q", got[0].Message)
	}
}

func TestMapRangeFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/san/maps.go": `package san

type registry map[string]int

func g(m map[int]bool, r registry, s []int, str string, ch chan int) int {
	total := 0
	for k := range m { // map: flagged
		_ = k
		total++
	}
	for k, v := range r { // named map type: flagged
		_, _ = k, v
	}
	for i, v := range s { // slice: fine
		_, _ = i, v
	}
	for _, c := range str { // string: fine
		_ = c
	}
	for v := range ch { // channel: fine
		_ = v
	}
	return total
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (plain and named map)", got)
	}
	if got[0].Pos.Line != 7 || got[1].Pos.Line != 11 {
		t.Errorf("lines = %d, %d, want 7 and 11", got[0].Pos.Line, got[1].Pos.Line)
	}
	for _, fd := range got {
		if fd.Rule != RuleMapRange {
			t.Errorf("rule = %q, want %q", fd.Rule, RuleMapRange)
		}
	}
}

func TestMapRangeSkipsUnknownTypes(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/san/oops.go": `package san

func g() {
	for k := range undefinedThing { // no type facts: skipped, not guessed
		_ = k
	}
}
`,
	})
	if len(got) != 0 {
		t.Fatalf("findings = %v, want none for untypeable operand", got)
	}
}

// TestSanImmutableFindings: writes to Program fields outside the
// allowlist are flagged — including through index expressions and via
// value receivers — while Compile, activityRef, writes through
// non-Program selectors, and local variables stay legal.
func TestSanImmutableFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/san/prog.go": `package san

type Model struct{ name string }

type Program struct {
	model *Model
	timed []int
	index map[string]int
	n     int
}

func Compile(m *Model) *Program {
	p := &Program{model: m}
	p.timed = append(p.timed, 1) // allowlisted: construction
	return p
}

func (p *Program) activityRef(name string) int {
	p.index = map[string]int{} // allowlisted: lazy index
	p.index[name] = 1
	return p.index[name]
}

func (p *Program) Reset() {
	p.timed = nil        // flagged: field write
	p.index["x"] = 2     // flagged: write through field
	p.n++                // flagged: inc/dec
	p.model.name = "new" // not a Program field (mutates the Model)
	local := p.n
	local++ // local: fine
	_ = local
}

func scrub(p *Program) {
	p.n = 0 // flagged: free function too
}
`,
		"cmd/tool/main.go": `package main

import "example.com/fake/internal/san"

func main() { san.Compile(nil).Reset() }
`,
	})
	var fields []string
	for _, fd := range got {
		if fd.Rule != RuleSanImmutable {
			t.Fatalf("rule = %q, want %q: %v", fd.Rule, RuleSanImmutable, fd)
		}
		if !strings.Contains(fd.Message, "immutable after Compile") {
			t.Errorf("message should state the contract: %q", fd.Message)
		}
		fields = append(fields, fd.Message[:strings.Index(fd.Message, ";")])
	}
	want := []string{
		"Reset writes Program.timed",
		"Reset writes Program.index",
		"Reset writes Program.n",
		"scrub writes Program.n",
	}
	if strings.Join(fields, "|") != strings.Join(want, "|") {
		t.Errorf("flagged = %v, want %v", fields, want)
	}
}

// TestRawSamplingFindings: math.Log over an rng.Source draw is flagged
// outside internal/rng — including draws buried in subexpressions and
// aliased math imports — while math.Log over plain data and the exempted
// internal/rng package stay legal.
func TestRawSamplingFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/rng/rng.go": `package rng

import "math"

type Source struct{ s uint64 }

func (r *Source) Float64() float64 { return 0.5 }

// The exempted package implements the primitive itself.
func (r *Source) ExpInv() float64 { return -math.Log(1 - r.Float64()) }
`,
		"internal/core/sample.go": `package core

import (
	m "math"
	"example.com/fake/internal/rng"
)

func bad(src *rng.Source) float64 {
	return -m.Log(1-src.Float64()) / 2 // flagged: inline inversion
}

func alsoBad(src *rng.Source, p float64) float64 {
	return m.Log(src.Float64()) / m.Log(1-p) // flagged once: only the first Log draws
}

func fine(x float64) float64 {
	return m.Log(x) // plain data: legal
}

func alsoFine(src *rng.Source) float64 {
	return src.ExpInv() // the sanctioned primitive
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (both inline inversions, nothing else)", got)
	}
	for _, fd := range got {
		if fd.Rule != RuleRawSampling {
			t.Errorf("rule = %q, want %q", fd.Rule, RuleRawSampling)
		}
		if !strings.Contains(fd.Message, "internal/rng") {
			t.Errorf("message should point at the sanctioned package: %q", fd.Message)
		}
	}
	if got[0].Pos.Line != 9 || got[1].Pos.Line != 13 {
		t.Errorf("lines = %d, %d, want 9 and 13", got[0].Pos.Line, got[1].Pos.Line)
	}
}

// TestEmitterPureFindings: the probe/timeline emitter packages may
// neither read the wall clock nor print to stdout — their output must
// be a pure function of the replication — while buffer-directed
// fmt.Fprintf/Sprintf and the rest of internal/obs stay legal.
func TestEmitterPureFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"internal/obs/probe/probe.go": `package probe

import (
	"bytes"
	"fmt"
	"time"
)

func bad(buf *bytes.Buffer) {
	_ = time.Now()                 // flagged: wall clock in an emitter
	fmt.Println("sampled")         // flagged: stdout from an emitter
	fmt.Fprintf(buf, "%d,", 1)     // buffer-directed: legal
	_ = fmt.Sprintf("v%d", 2)      // string building: legal
}
`,
		// internal/obs itself stays exempt (obs-clock prefix exemption,
		// and outside the emitter scope).
		"internal/obs/obs.go": `package obs

import (
	"fmt"
	"time"
)

func Clock() time.Duration { return time.Since(start) }

var start = time.Now()

func Progress() { fmt.Println("cell done") }
`,
		"cmd/tool/main.go": `package main

import "example.com/fake/internal/obs"

func main() {
	_ = obs.Clock()
	obs.Progress()
}
`,
	})
	if len(got) != 2 {
		t.Fatalf("findings = %v, want 2 (time.Now and fmt.Println in the emitter only)", got)
	}
	for _, fd := range got {
		if fd.Rule != RuleEmitterPure {
			t.Errorf("rule = %q, want %q", fd.Rule, RuleEmitterPure)
		}
	}
	if !strings.Contains(got[0].Message, "time.Now") {
		t.Errorf("first finding should name time.Now: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "fmt.Println") {
		t.Errorf("second finding should name fmt.Println: %q", got[1].Message)
	}
}

// TestUnusedExportFindings: an export under internal/ is dead unless a
// non-test file (a nested module's included) or another directory's
// test references it; methods of root-aliased types and methods that
// implement an interface are API regardless, and a generic function or
// method counts as used through its instantiations.
func TestUnusedExportFindings(t *testing.T) {
	got := runOn(t, map[string]string{
		"fake.go": `package fake

import "example.com/fake/internal/x"

// Aliased is public API, methods included.
type Aliased = x.Aliased

func Lengths(s []string) []int { return x.Map(s, func(v string) int { return len(v) }) }
`,
		"internal/x/x.go": `package x

func Unused() {}

func UsedByNested() {}

func UsedByOtherTests() {}

func UsedByOwnTests() {}

var UnusedVar int

type UnusedType struct{}

// Declaring a method does not use the receiver type.
type Orphan struct{}

func (Orphan) walk() {}

// A self-reference is not a use.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

type Walker interface{ Walk() }

var _ Walker = Config{}

type Config struct{}

func (*Config) UnmarshalJSON([]byte) error { return nil }

func (Config) Walk() {}

func (Config) Helper() {}

type Aliased struct{}

func (Aliased) Method() {}

func Map[T, U any](s []T, f func(T) U) []U {
	out := make([]U, 0, len(s))
	for _, v := range s {
		out = append(out, f(v))
	}
	return out
}

type Box[T any] struct{ v T }

func (b Box[T]) Unbox() T { return b.v }
`,
		"internal/x/x_test.go": `package x

import "testing"

func TestOwn(t *testing.T) { UsedByOwnTests() }
`,
		"internal/x/ext_test.go": `package x_test

import (
	"testing"

	"example.com/fake/internal/x"
)

func TestExt(t *testing.T) { x.UsedByOwnTests() }
`,
		// Only an external test package references UsedByExtTest.
		"internal/z/z.go": "package z\n\nfunc UsedByExtTest() {}\n",
		"internal/z/z_test.go": `package z_test

import (
	"testing"

	"example.com/fake/internal/z"
)

func TestZ(t *testing.T) { z.UsedByExtTest() }
`,
		"internal/y/y.go": "package y\n",
		"internal/y/y_test.go": `package y

import (
	"testing"

	"example.com/fake/internal/x"
)

func TestY(t *testing.T) { x.UsedByOtherTests() }
`,
		"cmd/tool/main.go": `package main

import (
	"encoding/json"

	"example.com/fake/internal/x"
)

func main() {
	_ = json.Unmarshal(nil, &x.Config{})
	_ = x.Box[int]{}.Unbox()
}
`,
		"bench/go.mod": "module example.com/fake/bench\n\ngo 1.22\n\nrequire example.com/fake v0.0.0\n\nreplace example.com/fake => ../\n",
		"bench/main.go": `package main

import "example.com/fake/internal/x"

func main() { x.UsedByNested() }
`,
	})
	var names []string
	for _, fd := range got {
		if fd.Rule != RuleUnusedExport {
			t.Errorf("rule = %q, want %q: %v", fd.Rule, RuleUnusedExport, fd)
		}
		names = append(names, strings.Fields(fd.Message)[0])
	}
	want := "Unused,UsedByOwnTests,UnusedVar,UnusedType,Orphan,Recurse,Config.Helper,UsedByExtTest"
	if got := strings.Join(names, ","); got != want {
		t.Errorf("reported %s, want %s", got, want)
	}
}

// TestUnusedExportSilentWhenDegraded: when a stdlib package failed to
// load, an interface a method implements may be missing, so the rule
// reports nothing rather than guess.
func TestUnusedExportSilentWhenDegraded(t *testing.T) {
	pkg := types.NewPackage("example.com/fake/internal/x", "x")
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Dead", types.NewSignatureType(nil, nil, nil, nil, nil, false)))
	var findings []Finding
	p := &pass{rule: RuleUnusedExport, fset: token.NewFileSet(), pkg: pkg, refs: &refIndex{}, findings: &findings}
	checkUnusedExport(p)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want Dead reported", findings)
	}
	findings = nil
	p.refs.degraded = true
	checkUnusedExport(p)
	if len(findings) != 0 {
		t.Errorf("findings = %v, want none from a degraded load", findings)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:     token.Position{Filename: "a/b.go", Line: 3, Column: 7},
		Rule:    RuleMapRange,
		Message: "ranges over map[int]bool",
	}
	want := "a/b.go:3:7: map-range: ranges over map[int]bool"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestRunSeededDefects runs the full rule table over a synthetic
// module with violations of every rule, plus exempted and out-of-scope
// code that must stay silent.
func TestRunSeededDefects(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/fake\n\ngo 1.22\n",
		// The root package is analyzed first and imports internal/san,
		// so internal/san is type-checked as a dependency before its own
		// turn: the typed rules must still see its types.
		"main.go": `package main

import (
	"example.com/fake/internal/rng"
	"example.com/fake/internal/san"
)

func main() { _ = san.Bad(nil) + rng.Draw() }
`,
		// In scope for rand, wall-clock, and map-range: all three fire.
		"internal/san/bad.go": `package san

import (
	"math/rand"
	"time"
)

func Bad(m map[string]int) int {
	total := rand.Int()
	_ = time.Now()
	for _, v := range m {
		total += v
	}
	return total
}
`,
		// Test files are exempt from the map-range rule but not the rand
		// rule.
		"internal/san/bad_test.go": `package san

import "math/rand"

func helper(m map[string]int) int {
	total := rand.Int()
	for _, v := range m { // test file: map range allowed
		total += v
	}
	return total
}
`,
		// Exported, but referenced by nothing.
		"internal/san/dead.go": `package san

func Dead() {}
`,
		// The exempted package may import math/rand.
		"internal/rng/rng.go": `package rng

import "math/rand"

func Draw() int { return rand.Int() }
`,
		// Outside the simulation scope: map ranges are allowed, but
		// math/rand is still banned and wall time must route through
		// obs.Clock.
		"cmd/tool/main.go": `package main

import (
	"math/rand"
	"time"
)

func main() {
	m := map[int]int{1: rand.Int()}
	for k, v := range m {
		_ = time.Now().Add(time.Duration(k + v))
	}
}
`,
	})
	findings, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	byFile := make(map[string][]string)
	for _, f := range findings {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		byFile[rel] = append(byFile[rel], f.Rule)
	}
	want := map[string][]string{
		"internal/san/bad.go":      {RuleGlobalRand, RuleWallClock, RuleMapRange},
		"internal/san/bad_test.go": {RuleGlobalRand},
		"cmd/tool/main.go":         {RuleGlobalRand, RuleObsClock},
		"internal/san/dead.go":     {RuleUnusedExport},
	}
	for file, rulesWant := range want {
		got := byFile[file]
		if strings.Join(got, ",") != strings.Join(rulesWant, ",") {
			t.Errorf("%s: rules = %v, want %v", file, got, rulesWant)
		}
	}
	if got := byFile["internal/rng/rng.go"]; len(got) != 0 {
		t.Errorf("exempted internal/rng flagged: %v", got)
	}
	if len(findings) != 7 {
		t.Errorf("total findings = %d, want 7:\n%s", len(findings), renderFindings(findings))
	}
}

// TestRepoClean is the contract itself: the simulator's own source must
// produce zero findings across all eight rules.
func TestRepoClean(t *testing.T) {
	findings, err := Run(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("repository violates its determinism contract:\n%s", renderFindings(findings))
	}
}

// TestAnalyzers: the fixed table holds the eight rules under unique
// names.
func TestAnalyzers(t *testing.T) {
	want := map[string]bool{
		RuleGlobalRand: true, RuleWallClock: true, RuleMapRange: true, RuleObsClock: true,
		RuleSanImmutable: true, RuleRawSampling: true, RuleEmitterPure: true, RuleUnusedExport: true,
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if !want[r.name] || seen[r.name] {
			t.Errorf("rule %q: unknown or duplicate name", r.name)
		}
		seen[r.name] = true
	}
	if len(rules) != 8 || len(seen) != 8 {
		t.Errorf("table holds %d rules (%d names), want 8", len(rules), len(seen))
	}
}

// TestRuleTable: every rule has a non-empty name and a check, and no
// rule asks for both type facts and test files (test files are not
// type-checked). Only unused-export reads the module-wide reference
// index, and it needs its package's types (pass.pkg) to list the
// candidates.
func TestRuleTable(t *testing.T) {
	for _, r := range rules {
		if r.name == "" {
			t.Error("rule with empty name")
		}
		if r.needTypes && r.includeTests {
			t.Errorf("rule %s both needs types and includes tests", r.name)
		}
		if r.needRefs != (r.name == RuleUnusedExport) || (r.needRefs && !r.needTypes) {
			t.Errorf("rule %s: needRefs = %v, needTypes = %v", r.name, r.needRefs, r.needTypes)
		}
		if r.check == nil {
			t.Errorf("rule %s has no check", r.name)
		}
	}
}

// flagFuncs reports every function declaration — a trivial syntactic
// rule for driver tests.
func flagFuncs(sc scope, includeTests bool) rule {
	return rule{
		name:         "flag-funcs",
		scope:        sc,
		includeTests: includeTests,
		check: func(p *pass) {
			for _, f := range p.files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
		},
	}
}

func messages(fs []Finding) string {
	var msgs []string
	for _, f := range fs {
		msgs = append(msgs, f.Message)
	}
	return strings.Join(msgs, ",")
}

func TestRunModuleScopesAndTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                "module example.com/m\n\ngo 1.22\n",
		"a/a.go":                "package a\n\nfunc A() {}\n",
		"a/a_test.go":           "package a\n\nfunc TestA() {}\n",
		"b/b.go":                "package b\n\nfunc B() {}\n",
		"b/testdata/ignored.go": "package ignored\n\nfunc Nope() {}\n",
	})
	findings, err := run(root, []rule{flagFuncs(scope{in: []string{"a"}}, true)})
	if err != nil {
		t.Fatal(err)
	}
	// Scoped to a/ with tests: A and TestA, never B or testdata.
	if got := messages(findings); got != "func A,func TestA" {
		t.Errorf("messages = %v, want [func A, func TestA]", got)
	}

	findings, err = run(root, []rule{flagFuncs(scope{}, false)})
	if err != nil {
		t.Fatal(err)
	}
	if got := messages(findings); got != "func A,func B" {
		t.Errorf("messages = %v, want [func A, func B] (no tests, no testdata)", got)
	}
}

func TestRunModuleTypedAnalyzer(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"p/p.go": "package p\n\nvar M = map[string]int{}\n",
	})
	typed := rule{
		name:      "flag-maps",
		needTypes: true,
		check: func(p *pass) {
			if p.info == nil {
				t.Error("typed rule ran without type facts")
				return
			}
			for _, f := range p.files {
				ast.Inspect(f, func(n ast.Node) bool {
					vs, ok := n.(*ast.ValueSpec)
					if !ok {
						return true
					}
					for _, v := range vs.Values {
						if tt := p.info.TypeOf(v); tt != nil {
							if _, isMap := tt.Underlying().(*types.Map); isMap {
								p.reportf(vs.Pos(), "map var")
							}
						}
					}
					return true
				})
			}
		},
	}
	findings, err := run(root, []rule{typed})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Message != "map var" {
		t.Errorf("findings = %v, want one map var", findings)
	}
}

func TestScopePredicates(t *testing.T) {
	dirs := []string{"internal/san", "internal/des"}
	cases := map[string]bool{
		"internal/san":          true,
		"internal/san/fixtures": true,
		"internal/sanalyze":     false,
		"internal/des":          true,
		"internal":              false,
		".":                     false,
	}
	for rel, want := range cases {
		if got := (scope{in: dirs}).admits(rel); got != want {
			t.Errorf("scope{in}.admits(%q) = %v, want %v", rel, got, want)
		}
		if got := (scope{out: dirs}).admits(rel); got != !want {
			t.Errorf("scope{out}.admits(%q) = %v, want %v", rel, got, !want)
		}
	}
	if !(scope{}).admits(".") {
		t.Error("empty scope should admit every package")
	}
}

func TestModulePathErrors(t *testing.T) {
	if _, err := modulePath(filepath.Join(t.TempDir(), "go.mod")); err == nil {
		t.Error("missing go.mod should error")
	}
	root := writeTree(t, map[string]string{"go.mod": "// no module line\n"})
	if _, err := modulePath(filepath.Join(root, "go.mod")); err == nil {
		t.Error("go.mod without module directive should error")
	}
	root2 := writeTree(t, map[string]string{"go.mod": "module  spaced/path \n"})
	got, err := modulePath(filepath.Join(root2, "go.mod"))
	if err != nil || got != "spaced/path" {
		t.Errorf("modulePath = %q, %v; want spaced/path", got, err)
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString("  " + f.String() + "\n")
	}
	return b.String()
}
