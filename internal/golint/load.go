package golint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("golint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("golint: no module directive in %s", gomod)
}

// goDirs returns every directory under root containing .go files, as
// sorted slash-separated paths relative to root. testdata, vendor, and
// hidden or underscore-prefixed directories are skipped, matching the go
// tool's conventions.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(dirs)
	return slices.Compact(dirs), nil
}

// parseDir parses, in name order, either the non-test or the _test.go
// files of a directory.
func parseDir(fset *token.FileSet, dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("golint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checkedPkg is one type-checked package with the type facts typed
// rules need.
type checkedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// loader is a minimal module-aware types.Importer: module-internal
// import paths resolve to directories under the root and are
// type-checked from source; everything else is delegated to the stdlib
// source importer. Stdlib packages that fail to load (stripped-down
// toolchains) degrade to empty placeholder packages — downstream
// expressions then simply have no type information, and typed rules
// skip them.
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	source  types.Importer
	parsed  map[string][]*ast.File
	tests   map[string][]*ast.File
	cache   map[string]*checkedPkg
	stdlib  map[string]*types.Package
	// placeholders counts the stdlib packages that failed to load.
	placeholders int
}

func newLoader(fset *token.FileSet, root, modPath string) *loader {
	return &loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		source:  importer.ForCompiler(fset, "source", nil),
		parsed:  make(map[string][]*ast.File),
		tests:   make(map[string][]*ast.File),
		cache:   make(map[string]*checkedPkg),
		stdlib:  make(map[string]*types.Package),
	}
}

// Import implements types.Importer.
func (l *loader) Import(importPath string) (*types.Package, error) {
	if importPath == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(importPath); ok {
		cp, err := l.check(rel)
		if err != nil {
			return nil, err
		}
		return cp.pkg, nil
	}
	if p, ok := l.stdlib[importPath]; ok {
		return p, nil
	}
	p, err := l.source.Import(importPath)
	if err != nil {
		p = types.NewPackage(importPath, path.Base(importPath))
		p.MarkComplete()
		l.placeholders++
	}
	l.stdlib[importPath] = p
	return p, nil
}

// moduleRel maps a module-internal import path to its root-relative
// directory.
func (l *loader) moduleRel(importPath string) (string, bool) {
	if importPath == l.modPath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(importPath, l.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// files returns the non-test files of one package directory, parsing
// them on first use only. Every pass and the type checker share this
// one parse, so a pass's files are always the syntax its type facts
// describe, even for a package first type-checked as a dependency.
func (l *loader) files(rel string) ([]*ast.File, error) { return l.parse(l.parsed, rel, false) }

// testFiles returns the _test.go files of one package directory, parsed
// on first use only.
func (l *loader) testFiles(rel string) ([]*ast.File, error) { return l.parse(l.tests, rel, true) }

func (l *loader) parse(cache map[string][]*ast.File, rel string, tests bool) ([]*ast.File, error) {
	if files, ok := cache[rel]; ok {
		return files, nil
	}
	files, err := parseDir(l.fset, filepath.Join(l.root, filepath.FromSlash(rel)), tests)
	if err != nil {
		return nil, err
	}
	cache[rel] = files
	return files, nil
}

// check type-checks the non-test files of one package directory.
func (l *loader) check(rel string) (*checkedPkg, error) {
	if cp, ok := l.cache[rel]; ok {
		return cp, nil
	}
	files, err := l.files(rel)
	if err != nil {
		return nil, err
	}
	importPath := l.modPath
	if rel != "." {
		importPath = l.modPath + "/" + rel
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Uses: make(map[*ast.Ident]types.Object)}
	cp := &checkedPkg{pkg: typeCheck(importPath, l.fset, files, info, l), info: info}
	l.cache[rel] = cp
	return cp, nil
}

// typeCheck type-checks files as package importPath. Type errors are
// tolerated: the checker records what it can, and rules skip
// expressions without type facts.
func typeCheck(importPath string, fset *token.FileSet, files []*ast.File, info *types.Info, imp types.Importer) *types.Package {
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(importPath, fset, files, info)
	return pkg
}
