package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked target package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only; see Pass.Files
	Tests []*ast.File // _test.go files, parsed; see Pass.TestFiles
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info populated with every map the analyzers
// consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// goList runs `go list -deps -export -json` over patterns in dir and
// decodes the package stream. The -export flag compiles each package,
// so type information comes from the exact gc export data the build
// would use — no source re-typechecking of dependencies, and it works
// without network access.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,TestGoFiles,XTestGoFiles,Error",
		"--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter satisfies types.Importer from a map of import path to
// gc export-data file, with an interior cache shared across packages.
type exportImporter struct {
	compiled types.ImporterFrom
	remap    map[string]string // source import path -> resolved path (vettool ImportMap)
}

func newExportImporter(fset *token.FileSet, exports map[string]string, remap map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{
		compiled: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom),
		remap:    remap,
	}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := ei.remap[path]; ok && mapped != "" {
		path = mapped
	}
	return ei.compiled.Import(path)
}

// parseFiles parses the named files (absolute or dir-relative) with
// comments, splitting test files out: they participate in
// type-checking but not analysis.
func parseFiles(fset *token.FileSet, dir string, names []string) (analyze, tests, all []*ast.File, err error) {
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		all = append(all, f)
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			analyze = append(analyze, f)
		}
	}
	return analyze, tests, all, nil
}

// parseImportsOnly returns the raw (quoted) import specs of one file
// without parsing bodies — enough to walk a fixture import graph.
func parseImportsOnly(fset *token.FileSet, path string) ([]string, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
	if err != nil {
		return nil, err
	}
	var specs []string
	for _, imp := range f.Imports {
		specs = append(specs, imp.Path.Value)
	}
	return specs, nil
}

// typeCheck runs the go/types checker over files, importing
// dependencies through imp.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// LoadUnit type-checks the single package a `go vet -vettool` config
// describes, resolving imports through the build's own export-data
// files (cfg.PackageFile) after source-path remapping (cfg.ImportMap).
func LoadUnit(importPath, dir string, goFiles []string, importMap, packageFile map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	analyze, tests, all, err := parseFiles(fset, dir, goFiles)
	if err != nil {
		return nil, err
	}
	imp := newExportImporter(fset, packageFile, importMap)
	tpkg, info, err := typeCheck(fset, importPath, all, imp)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  fset,
		Files: analyze,
		Tests: tests,
		Types: tpkg,
		Info:  info,
	}, nil
}

// Load lists patterns in dir (a module root), compiles them via the go
// toolchain, and type-checks every non-dependency-only package against
// the compiled export data of its imports. Test files are parsed but
// not type-checked (an external test is a package of its own).
func Load(fset *token.FileSet, dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	imp := newExportImporter(fset, exports, nil)

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		analyze, _, all, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		_, tests, _, err := parseFiles(fset, p.Dir, append(p.TestGoFiles, p.XTestGoFiles...))
		if err != nil {
			return nil, err
		}
		tpkg, info, err := typeCheck(fset, p.ImportPath, all, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		out = append(out, &Package{
			Path:  p.ImportPath,
			Dir:   p.Dir,
			Fset:  fset,
			Files: analyze,
			Tests: tests,
			Types: tpkg,
			Info:  info,
		})
	}
	return out, nil
}
