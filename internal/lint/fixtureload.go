package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadFixture loads analysistest fixture packages from a testdata
// source tree (srcRoot/<importPath>/*.go). Fixture packages may import
// each other (multi-package lockcheck cases) and anything the real
// module can import — stdlib and repro/* packages resolve through
// `go list -export` against the enclosing module, exactly like the
// standalone driver. A fixture directory shadows the real package of
// the same import path, which is how fixtures stand in for
// repro/internal/persist and friends.
//
//lint:allow unreachable(test support: analysistest loads the golden fixtures with it)
func LoadFixture(fset *token.FileSet, srcRoot string, paths []string) ([]*Package, error) {
	ld := &fixtureLoader{
		fset:      fset,
		srcRoot:   srcRoot,
		parsed:    map[string]*fixturePkg{},
		compiled:  map[string]*Package{},
		externals: map[string]bool{},
	}
	for _, p := range paths {
		if err := ld.parseLocal(p); err != nil {
			return nil, err
		}
	}
	if len(ld.externals) > 0 {
		ext := make([]string, 0, len(ld.externals))
		for p := range ld.externals {
			ext = append(ext, p)
		}
		sort.Strings(ext)
		listed, err := goList(".", ext)
		if err != nil {
			return nil, err
		}
		exports := make(map[string]string, len(listed))
		for _, p := range listed {
			exports[p.ImportPath] = p.Export
		}
		ld.exporter = newExportImporter(fset, exports, nil)
	}
	var out []*Package
	for _, p := range paths {
		pkg, err := ld.compile(p, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

type fixturePkg struct {
	path    string
	dir     string
	files   []string
	imports []string
}

type fixtureLoader struct {
	fset      *token.FileSet
	srcRoot   string
	parsed    map[string]*fixturePkg
	compiled  map[string]*Package
	externals map[string]bool
	exporter  *exportImporter
}

// parseLocal scans the fixture package's file list and import graph
// (without type-checking yet), recursing into sibling fixture packages
// and recording everything else as external.
func (ld *fixtureLoader) parseLocal(path string) error {
	if _, done := ld.parsed[path]; done {
		return nil
	}
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("fixture package %q: %w", path, err)
	}
	fp := &fixturePkg{path: path, dir: dir}
	ld.parsed[path] = fp
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		fp.files = append(fp.files, e.Name())
	}
	sort.Strings(fp.files)
	if len(fp.files) == 0 {
		return fmt.Errorf("fixture package %q: no .go files in %s", path, dir)
	}
	// A cheap imports-only parse pass to discover the graph.
	for _, name := range fp.files {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if _, statErr := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(imp))); statErr == nil {
				fp.imports = append(fp.imports, imp)
				if err := ld.parseLocal(imp); err != nil {
					return err
				}
			} else if imp != "unsafe" {
				ld.externals[imp] = true
			}
		}
	}
	return nil
}

// compile type-checks a fixture package after its local dependencies,
// with `stack` guarding against fixture import cycles.
func (ld *fixtureLoader) compile(path string, stack []string) (*Package, error) {
	if pkg, done := ld.compiled[path]; done {
		return pkg, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("fixture import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
	}
	fp := ld.parsed[path]
	if fp == nil {
		return nil, fmt.Errorf("fixture package %q was never parsed", path)
	}
	for _, dep := range fp.imports {
		if _, err := ld.compile(dep, append(stack, path)); err != nil {
			return nil, err
		}
	}
	analyze, all, err := parseFiles(ld.fset, fp.dir, fp.files)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := typeCheck(ld.fset, path, all, fixtureImporter{ld})
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: fp.dir, Fset: ld.fset, Files: analyze, Types: tpkg, Info: info}
	ld.compiled[path] = pkg
	return pkg, nil
}

// fixtureImporter resolves local fixture packages first, then falls
// back to the module's export data.
type fixtureImporter struct{ ld *fixtureLoader }

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.ld.compiled[path]; ok {
		return pkg.Types, nil
	}
	if _, ok := fi.ld.parsed[path]; ok {
		return nil, fmt.Errorf("fixture package %q imported before being compiled", path)
	}
	if fi.ld.exporter == nil {
		return nil, fmt.Errorf("no export data loaded for %q", path)
	}
	return fi.ld.exporter.Import(path)
}
