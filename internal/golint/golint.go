// Package golint enforces the simulator's determinism contract on its own
// Go source. Reproducibility is a core claim of the framework — every
// replication is a pure function of its seed — and these source-level
// patterns silently break it:
//
//   - math/rand: the global source (and ad-hoc local sources) bypass the
//     seeded, splittable streams in internal/rng. Only internal/rng may
//     import it (it does not — it implements xoshiro256++ directly — but
//     the exemption keeps the rule honest if it ever needs a reference
//     implementation for tests).
//   - time.Now / time.Since / time.Until: wall-clock reads inside the
//     simulation packages leak host timing into model behavior
//     (wall-clock); outside them, direct reads bypass the single
//     sanctioned clock, obs.Clock (obs-clock).
//   - range over a map in non-test simulation code: Go randomizes map
//     iteration order, so any map range on a hot path can reorder events,
//     scheduling decisions, or floating-point accumulation between runs.
//   - writes to san.Program fields after Compile: the compiled program is
//     shared by every Instance and replication worker; mutating it
//     races and breaks the compile-once contract (san-immutable).
//   - math.Log applied to a raw rng.Source draw outside internal/rng:
//     inlined inverse-transform sampling (-log(1-U)/rate and friends)
//     forks the sampling algorithm away from the determinism contract —
//     the primitives live in internal/rng (Source.ExpInv, the
//     Distribution types) so the variate stream has one definition
//     (raw-sampling).
//
// One rule guards the code's size instead: exported API under internal/
// that only its own package's tests reference (unused-export).
//
// The rules form one fixed table, each with the module-relative
// directories it applies to, and Run is their only driver: it parses
// each package directory once, type-checks from source only the
// packages a typed rule needs (every package and its tests when
// unused-export runs), and powers both the `vcpusim vet` source lint and
// TestRepoClean. The implementation is stdlib-only (go/ast,
// go/parser, go/types). The checks are deliberately conservative: an
// identifier named after the time package that actually refers to a
// shadowing local is still reported, because shadowing the time package
// in simulation code is itself worth flagging.
package golint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Rule identifiers, one per rule in the table.
const (
	// RuleGlobalRand flags imports of math/rand (v1 or v2) outside the
	// exempted packages.
	RuleGlobalRand = "global-rand"
	// RuleWallClock flags wall-clock reads (time.Now and friends) inside
	// the simulation packages.
	RuleWallClock = "wall-clock"
	// RuleMapRange flags range statements over maps in non-test files of
	// the simulation packages.
	RuleMapRange = "map-range"
	// RuleObsClock flags wall-clock reads everywhere else (outside the
	// simulation scope and internal/obs): wall time flows through
	// obs.Clock.
	RuleObsClock = "obs-clock"
	// RuleSanImmutable flags writes to san.Program fields outside the
	// compile path: programs are immutable once compiled.
	RuleSanImmutable = "san-immutable"
	// RuleRawSampling flags math.Log calls whose argument draws from an
	// rng.Source outside internal/rng: sampling transforms belong to the
	// versioned primitives in internal/rng.
	RuleRawSampling = "raw-sampling"
	// RuleEmitterPure flags wall-clock reads and fmt stdout printing in
	// the deep-inspection emitters (probe samplers, timeline trackers):
	// emitters observe virtual time only and write to their own buffers,
	// so their output stays a pure function of the replication seed.
	RuleEmitterPure = "emitter-pure"
	// RuleUnusedExport flags exported functions, methods, types and
	// package-level vars under internal/ that only their own package's
	// tests reference.
	RuleUnusedExport = "unused-export"
)

// Finding is one rule violation.
type Finding struct {
	// Pos locates the offending syntax.
	Pos token.Position
	// Rule is one of the Rule* identifiers.
	Rule string
	// Message explains the violation and the sanctioned alternative.
	Message string
}

// String renders the finding in the conventional path:line:col format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Run analyzes every Go package under the module rooted at root and
// returns the findings sorted by position. A nil slice means the tree
// satisfies the determinism contract.
func Run(root string) ([]Finding, error) {
	return run(root, rules)
}

// rule is one determinism check: the packages it applies to, whether it
// reads _test.go files or type facts, and the check itself.
type rule struct {
	name  string
	scope scope
	// includeTests also hands the check the package's _test.go files.
	// Test files are not type-checked, so a rule cannot combine it with
	// needTypes.
	includeTests bool
	// needTypes type-checks the package and fills pass.pkg and
	// pass.info; syntactic rules leave it false and pay no type-checking
	// cost.
	needTypes bool
	// needRefs fills pass.refs, the tree's reference index, built once.
	needRefs bool
	check    func(*pass)
}

// scope selects packages by module-relative, slash-separated directory
// ("." for the module root): a package is admitted when it is in or under
// one of in (every package when in is empty) and in or under none of out.
type scope struct{ in, out []string }

func (s scope) admits(rel string) bool {
	return (len(s.in) == 0 || under(rel, s.in)) && !under(rel, s.out)
}

// under reports whether rel is one of dirs or inside one of them.
func under(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// pass is one rule applied to one package.
type pass struct {
	rule     string
	fset     *token.FileSet
	files    []*ast.File
	pkg      *types.Package // nil unless the rule needs types
	info     *types.Info    // nil unless the rule needs types
	refs     *refIndex      // nil unless the rule needs references
	findings *[]Finding
}

// reportf records a finding at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:     p.fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// run applies each rule to the packages under root its scope admits.
// Packages no rule applies to are not even parsed; packages only
// syntactic rules apply to are not type-checked.
func run(root string, rules []rule) ([]Finding, error) {
	if root == "" {
		return nil, fmt.Errorf("golint: empty root")
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := newLoader(fset, root, modPath)
	var refs *refIndex
	for _, r := range rules {
		if r.needRefs && refs == nil {
			if refs, err = buildRefs(ld, dirs); err != nil {
				return nil, err
			}
		}
	}
	var findings []Finding
	for _, rel := range dirs {
		var applicable []*rule
		needTypes, needTests := false, false
		for i := range rules {
			r := &rules[i]
			if !r.scope.admits(rel) {
				continue
			}
			applicable = append(applicable, r)
			needTypes = needTypes || r.needTypes
			needTests = needTests || r.includeTests
		}
		if len(applicable) == 0 {
			continue
		}
		src, err := ld.files(rel)
		if err != nil {
			return nil, err
		}
		var tests []*ast.File
		if needTests {
			if tests, err = ld.testFiles(rel); err != nil {
				return nil, err
			}
		}
		var checked *checkedPkg
		if needTypes {
			if checked, err = ld.check(rel); err != nil {
				return nil, err
			}
		}
		for _, r := range applicable {
			p := &pass{rule: r.name, fset: fset, files: src, findings: &findings}
			if r.includeTests {
				p.files = append(append([]*ast.File(nil), src...), tests...)
			}
			if r.needTypes {
				p.pkg, p.info = checked.pkg, checked.info
			}
			if r.needRefs {
				p.refs = refs
			}
			r.check(p)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}
