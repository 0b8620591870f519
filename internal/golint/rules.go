package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// The simulation packages: no wall-clock reads at all, and (all but the
// replication controller) no map ranges. internal/sim is excluded from
// the map-range scope because its map iteration feeds only
// order-independent per-metric aggregation, never event ordering.
var (
	clockDirs    = []string{"internal/san", "internal/des", "internal/core", "internal/sched", "internal/fastsim", "internal/sim"}
	mapRangeDirs = []string{"internal/san", "internal/des", "internal/core", "internal/sched", "internal/fastsim"}
)

// rules is the determinism contract: one entry per Rule* identifier,
// each with the packages it applies to.
var rules = []rule{
	{name: RuleGlobalRand, scope: scope{out: []string{"internal/rng"}}, includeTests: true, check: checkGlobalRand},
	{name: RuleWallClock, scope: scope{in: clockDirs}, includeTests: true, check: checkWallClock},
	{name: RuleMapRange, scope: scope{in: mapRangeDirs}, needTypes: true, check: checkMapRange},
	{name: RuleObsClock, scope: scope{out: append([]string{"internal/obs"}, clockDirs...)}, includeTests: true, check: checkObsClock},
	{name: RuleSanImmutable, scope: scope{in: []string{"internal/san"}}, needTypes: true, check: checkSanImmutable},
	{name: RuleRawSampling, scope: scope{out: []string{"internal/rng"}}, needTypes: true, check: checkRawSampling},
	{name: RuleEmitterPure, scope: scope{in: []string{"internal/obs/probe", "internal/obs/timeline"}}, includeTests: true, check: checkEmitterPure},
	{name: RuleUnusedExport, scope: scope{in: []string{"internal"}}, needTypes: true, needRefs: true, check: checkUnusedExport},
}

// checkGlobalRand bans math/rand imports everywhere but internal/rng,
// the seeded-stream implementation.
func checkGlobalRand(pass *pass) {
	for _, f := range pass.files {
		for _, imp := range f.Imports {
			p := importString(imp)
			if p == "math/rand" || p == "math/rand/v2" {
				pass.reportf(imp.Pos(), "imports %q; deterministic simulation code must draw from the seeded streams in vcpusim/internal/rng", p)
			}
		}
	}
}

// clockReaders are the time-package functions that read the wall clock.
var clockReaders = map[string]bool{"Now": true, "Since": true, "Until": true}

// reportClockReads reports wall-clock reads in one file with the given
// remedy appended. The check is syntactic: any selector
// <timePkg>.Now/Since/Until where <timePkg> is the file's local name for
// the "time" import.
func reportClockReads(pass *pass, remedy string) {
	for _, f := range pass.files {
		names := localPackageNames(f, "time")
		if len(names) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !clockReaders[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !names[id.Name] {
				return true
			}
			pass.reportf(sel.Pos(), "calls time.%s; %s", sel.Sel.Name, remedy)
			return true
		})
	}
}

// checkWallClock bans wall-clock reads in the simulation packages:
// inside the simulator, the only clock is model time.
func checkWallClock(pass *pass) {
	reportClockReads(pass, "simulation code must use model time (the kernel clock), never the wall clock")
}

// checkObsClock is the wall-clock rule for everything outside the
// simulation scope: tooling that legitimately measures wall time
// (experiment drivers, CLIs) must route through vcpusim/internal/obs —
// obs.Clock is monotonic and the single sanctioned clock — so simulation
// packages can be audited by the stricter wall-clock rule and everything
// else stays greppably uniform.
func checkObsClock(pass *pass) {
	reportClockReads(pass, "wall time outside the simulator flows through vcpusim/internal/obs (obs.Clock), keeping direct clock reads confined to one package")
}

// checkMapRange bans map iteration on simulation hot paths: Go
// randomizes map order, so a map range can reorder events or
// floating-point accumulation between runs.
func checkMapRange(pass *pass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			// Range expressions with unknown types (a dependency
			// failed to type-check) are skipped, not guessed at.
			t := pass.info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.reportf(rs.Pos(), "ranges over %s; map iteration order is randomized — iterate a sorted or insertion-ordered slice instead", t)
			}
			return true
		})
	}
}

// sanMutationAllowed are the functions permitted to write san.Program
// fields: Compile constructs the program, and activityRef builds the
// lazy name index behind a sync.Once.
var sanMutationAllowed = map[string]bool{"Compile": true, "activityRef": true}

// checkSanImmutable enforces Program immutability: san.Program is
// documented as immutable after Compile (instances share it across
// replications and workers), so no function outside the allowlist may
// assign to a Program field. The check is type-based: any assignment or
// ++/-- whose target is a selector on a Program-typed expression.
func checkSanImmutable(pass *pass) {
	report := func(fn string, e ast.Expr) {
		if sel, name, ok := programField(pass.info, e); ok {
			pass.reportf(sel, "%s writes Program.%s; san.Program is immutable after Compile — move the write into Compile or keep per-run state on the Instance", fn, name)
		}
	}
	for _, f := range pass.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || sanMutationAllowed[fd.Name.Name] {
				continue
			}
			fn := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range st.Lhs {
						report(fn, lhs)
					}
				case *ast.IncDecStmt:
					report(fn, st.X)
				}
				return true
			})
		}
	}
}

// programField reports whether e is a field selector on a Program-typed
// expression (possibly through index or paren wrappers), returning the
// selector position and field name. It does not descend past a selector
// on another type: `p.model.foo = x` mutates the Model, not the
// Program.
func programField(info *types.Info, e ast.Expr) (token.Pos, string, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if t := info.TypeOf(x.X); t != nil && isProgramType(t) {
				return x.Sel.Pos(), x.Sel.Name, true
			}
			return 0, "", false
		default:
			return 0, "", false
		}
	}
}

// checkRawSampling bans inline sampling: applying math.Log to an
// expression that draws from an rng.Source re-implements
// inverse-transform sampling at the call site, outside the determinism
// contract. The sanctioned primitives (Source.ExpInv, the Distribution
// types) live in internal/rng, so the variate stream has one definition
// and a change to it reaches every consumer at once. The check is
// type-based: a call to math.Log (under whatever local name "math" is
// imported) whose argument subtree contains a method call on an
// rng.Source receiver. math.Log over plain data (statistics, analytic
// CDFs) stays legal.
func checkRawSampling(pass *pass) {
	for _, f := range pass.files {
		names := localPackageNames(f, "math")
		if len(names) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Log" {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !names[id.Name] {
				return true
			}
			if drawsFromSource(pass.info, call.Args) {
				pass.reportf(call.Pos(), "transforms a raw rng.Source draw with math.Log; inverse-transform sampling belongs to the primitives in vcpusim/internal/rng (Source.ExpInv, the Distribution types)")
			}
			return true
		})
	}
}

// drawsFromSource reports whether any of the expressions contains a
// method call on an rng.Source receiver.
func drawsFromSource(info *types.Info, args []ast.Expr) bool {
	found := false
	for _, a := range args {
		ast.Inspect(a, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if t := info.TypeOf(sel.X); t != nil && isSourceType(t) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSourceType reports whether t is rng.Source or *rng.Source.
func isSourceType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Source" {
		return false
	}
	p := obj.Pkg().Path()
	return p == "vcpusim/internal/rng" || strings.HasSuffix(p, "/internal/rng")
}

// isProgramType reports whether t is san.Program or *san.Program.
func isProgramType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Program" {
		return false
	}
	p := obj.Pkg().Path()
	return p == "vcpusim/internal/san" || strings.HasSuffix(p, "/internal/san")
}

// stdoutPrinters are the fmt functions that write to process stdout.
var stdoutPrinters = map[string]bool{"Print": true, "Printf": true, "Println": true}

// checkEmitterPure holds the deep-inspection emitters to their
// contract: the probe and timeline packages render byte-deterministic
// series and traces, so they may read neither the wall clock (virtual
// time comes from the SAN executive) nor write to process stdout
// (fmt.Print*); their output goes to caller-owned buffers and writers
// only. These packages sit under internal/obs, which the obs-clock rule
// exempts by prefix — this rule is what keeps their determinism
// auditable.
func checkEmitterPure(pass *pass) {
	reportClockReads(pass, "inspection emitters observe virtual time only (the executive's Now); wall time would make the exported series non-reproducible")
	for _, f := range pass.files {
		names := localPackageNames(f, "fmt")
		if len(names) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !stdoutPrinters[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !names[id.Name] {
				return true
			}
			pass.reportf(sel.Pos(), "calls fmt.%s; emitters write to their own buffers (fmt.Fprintf to a caller-supplied writer) — stdout belongs to the CLI layer", sel.Sel.Name)
			return true
		})
	}
}

// localPackageNames maps the identifiers under which importPath is
// referable in the file (normally the package name, or the alias).
func localPackageNames(f *ast.File, importPath string) map[string]bool {
	names := make(map[string]bool)
	for _, imp := range f.Imports {
		if importString(imp) != importPath {
			continue
		}
		switch {
		case imp.Name == nil:
			names[path.Base(importPath)] = true
		case imp.Name.Name == "_" || imp.Name.Name == ".":
			// Blank imports expose nothing; dot imports of "time" do not
			// occur in this codebase and would need full type info.
		default:
			names[imp.Name.Name] = true
		}
	}
	return names
}

// importString unquotes an import path literal.
func importString(imp *ast.ImportSpec) string {
	return strings.Trim(imp.Path.Value, `"`)
}
