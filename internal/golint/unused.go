package golint

import (
	"go/ast"
	"go/types"
	"strings"
)

// refIndex is what unused-export knows of the whole tree.
type refIndex struct {
	used     map[types.Object]bool // referenced, or methods of a root-aliased type
	ifaces   []*types.Interface    // declared in any loaded package, plus error
	degraded bool                  // a stdlib package failed to load
}

// buildRefs type-checks every package directory, with and without its
// _test.go files, and records what each references.
func buildRefs(ld *loader, dirs []string) (*refIndex, error) {
	idx := &refIndex{used: make(map[types.Object]bool)}
	for _, rel := range dirs {
		cp, err := ld.check(rel)
		if err != nil {
			return nil, err
		}
		src, _ := ld.files(rel) // parsed by check
		idx.addUses(src, cp.info, "")
		if err := idx.addTestUses(ld, rel, cp.pkg.Path(), src); err != nil {
			return nil, err
		}
	}
	if root, ok := ld.cache["."]; ok {
		for _, name := range root.pkg.Scope().Names() {
			if tn, ok := root.pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						idx.used[named.Method(i)] = true // public API
					}
				}
			}
		}
	}
	idx.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	addIfaces := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					idx.ifaces = append(idx.ifaces, it)
				}
			}
		}
	}
	for _, cp := range ld.cache {
		addIfaces(cp.pkg)
	}
	for _, p := range ld.stdlib {
		addIfaces(p)
	}
	idx.degraded = ld.placeholders > 0
	return idx, nil
}

// addTestUses records what one directory's tests reference in other
// packages. In-package test files are checked with the package's own
// files; an external _test package imports that test build of it.
func (idx *refIndex) addTestUses(ld *loader, rel, path string, src []*ast.File) error {
	tests, err := ld.testFiles(rel)
	if err != nil {
		return err
	}
	var inPkg, ext []*ast.File
	for _, f := range tests {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var imp types.Importer = ld
	if len(inPkg) > 0 {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		pkg := typeCheck(path, ld.fset, append(append([]*ast.File(nil), src...), inPkg...), info, ld)
		idx.addUses(inPkg, info, path)
		imp = importerFunc(func(p string) (*types.Package, error) {
			if p == path {
				return pkg, nil
			}
			return ld.Import(p)
		})
	}
	if len(ext) > 0 {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		typeCheck(path+"_test", ld.fset, ext, info, imp)
		idx.addUses(ext, info, path)
	}
	return nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addUses marks the objects files reference outside the declaration
// declaring them (a function, or one spec of a declaration group),
// except objects of package skip. A method's receiver is no use of its
// type, and a use of a generic's instance is a use of its origin.
func (idx *refIndex) addUses(files []*ast.File, info *types.Info, skip string) {
	mark := func(decl, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == skip {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if obj.Pos() < decl.Pos() || obj.Pos() >= decl.End() {
				idx.used[obj] = true
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					mark(spec, spec)
				}
			case *ast.FuncDecl:
				mark(d, d.Type)
				if d.Body != nil {
					mark(d, d.Body)
				}
			}
		}
	}
}

// implements reports whether T or *T implements an interface with a
// method called name. Implements cannot judge an uninstantiated generic
// type, so for one the shared name is enough.
func (idx *refIndex) implements(named *types.Named, name string) bool {
	generic := named.TypeParams().Len() > 0
	for _, it := range idx.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (generic || types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// checkUnusedExport reports the exported functions, types, package-level
// vars and methods that nothing but their own package's tests
// references. Methods of types the root package re-exports, and methods
// that implement an interface, are API regardless; with a stdlib package
// missing, such an interface may be too, so the rule then stays silent.
func checkUnusedExport(pass *pass) {
	if pass.refs.degraded {
		return
	}
	const msg = "%s is exported but referenced only from its own declaration or its own package's tests; delete it, unexport it, or move it into an export_test.go"
	scope := pass.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if _, isConst := obj.(*types.Const); !isConst && obj.Exported() && !pass.refs.used[obj] {
			pass.reportf(obj.Pos(), msg, name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		for i := 0; ok && i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() && !pass.refs.used[m] && !pass.refs.implements(named, m.Name()) {
				pass.reportf(m.Pos(), msg, name+"."+m.Name())
			}
		}
	}
}
