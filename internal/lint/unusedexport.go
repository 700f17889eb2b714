package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strconv"
)

// Unusedexport finds exported API that only its own package's tests
// call. An exported func, method, type, var or const declared in a
// non-test file is reported unless a non-test file references it
// (through type information, the declaration's own body excepted), a
// test file of another package references it (a syntactic scan:
// pkg.Name through an import of the declaring package, or, for a
// method, any .Name selector), or it is a method that helps its type
// satisfy some interface in the program or its imports (String, Error,
// Read, the geo.Geometry methods). The rule is whole-program, so it
// runs only as a Finish hook in the standalone pass.
var Unusedexport = &Analyzer{
	Name: "unusedexport",
	Doc: "exported names that no non-test file and no other package's test references " +
		"are test-only API; delete them or annotate with //lint:allow unusedexport(reason)",
	Run:    runUnusedexport,
	Finish: finishUnusedexport,
}

// An exportDecl is one exported package-level declaration.
type exportDecl struct {
	key  string // objKey of the declared object
	pkg  string // declaring package path
	name string
	kind string // "func", "method", "type", "var" or "const"
	pos  token.Position
}

// A methodSig is a method reduced to what the interface rule compares:
// name and arity. Matching on arity rather than identical types keeps
// the rule conservative across the source/export-data split, where one
// named type can appear as two distinct objects.
type methodSig struct {
	name            string
	params, results int
	key             string // objKey of the concrete method; "" for interface methods
}

// unusedFacts is the whole-program state Run accumulates for Finish.
type unusedFacts struct {
	decls []exportDecl
	// used holds the keys referenced from some non-test file.
	used map[string]bool
	// testQualified holds "path.Name" for every pkg.Name selector in a
	// test file whose own package is not path.
	testQualified map[string]bool
	// testSelectors maps a selector name seen in test files to the
	// packages whose tests use it.
	testSelectors map[string]map[string]bool
	// ifaces holds every distinct non-empty method set of an interface
	// type the program mentions or imports, keyed by its fmt rendering.
	ifaces map[string][]methodSig
	// typeMethods holds, per package-level named type, the pointer
	// method set (promoted methods included).
	typeMethods [][]methodSig
	scanned     map[*types.Package]bool
}

const unusedFactKey = "unusedexport.facts"

// implicitInterfaces are the method sets errors.Is, errors.As and
// errors.Unwrap test for through interfaces declared inside function
// bodies, which no package scope holds.
var implicitInterfaces = []methodSig{
	{name: "Unwrap", params: 0, results: 1},
	{name: "Is", params: 1, results: 1},
	{name: "As", params: 1, results: 1},
}

func unusedFactsOf(prog *Program) *unusedFacts {
	return prog.Fact(unusedFactKey, func() any {
		f := &unusedFacts{
			used:          map[string]bool{},
			testQualified: map[string]bool{},
			testSelectors: map[string]map[string]bool{},
			ifaces:        map[string][]methodSig{},
			scanned:       map[*types.Package]bool{},
		}
		for _, m := range implicitInterfaces {
			f.ifaces[fmt.Sprint(m)] = []methodSig{m}
		}
		return f
	}).(*unusedFacts)
}

// objKey names a package-level object or a method uniquely across the
// source-checked and export-data views of the same package: "path.Name"
// or "path.Type.Method". It returns "" for anything else.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "" // an interface method
			}
			return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func runUnusedexport(pass *Pass) error {
	facts := unusedFactsOf(pass.Program)
	pkgPath := pass.Pkg.Path()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			use := facts.useIn(pass, facts.declare(pass, decl))
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				// A receiver names its type without using it.
				ast.Inspect(fd.Type, use)
				if fd.Body != nil {
					ast.Inspect(fd.Body, use)
				}
				continue
			}
			ast.Inspect(decl, use)
		}
	}
	for _, file := range pass.TestFiles {
		facts.scanTestFile(pkgPath, file)
	}
	for _, tv := range pass.Info.Types {
		facts.addInterface(tv.Type)
	}
	facts.scanScope(pass.Pkg)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		facts.typeMethods = append(facts.typeMethods, methodSigs(types.NewMethodSet(types.NewPointer(tn.Type()))))
	}
	return nil
}

// declare records decl's exported names and returns the keys the
// declaration itself defines, so self-references do not count as uses.
func (f *unusedFacts) declare(pass *Pass, decl ast.Decl) map[string]bool {
	self := map[string]bool{}
	add := func(id *ast.Ident, kind string) {
		key := objKey(pass.Info.Defs[id])
		if key == "" {
			return
		}
		self[key] = true
		if id.IsExported() {
			f.decls = append(f.decls, exportDecl{key: key, pkg: pass.Pkg.Path(), name: id.Name,
				kind: kind, pos: pass.Fset.Position(id.Pos())})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		kind := "func"
		if d.Recv != nil {
			kind = "method"
		}
		add(d.Name, kind)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, "type")
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, d.Tok.String())
				}
			}
		}
	}
	return self
}

// useIn returns an inspector that marks every identifier's referent as
// used, except the declaration's own names.
func (f *unusedFacts) useIn(pass *Pass, self map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if key := objKey(pass.Info.Uses[id]); key != "" && !self[key] {
			f.used[key] = true
		}
		return true
	}
}

// scanTestFile records the qualified identifiers and selector names a
// test file of package pkgPath uses, without type information.
func (f *unusedFacts) scanTestFile(pkgPath string, file *ast.File) {
	imports := map[string]string{} // local name -> import path
	var dotImports []string
	for _, spec := range file.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p == pkgPath {
			continue
		}
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == "." {
			dotImports = append(dotImports, p)
		} else {
			imports[name] = p
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					f.testQualified[p+"."+n.Sel.Name] = true
				}
			}
			users := f.testSelectors[n.Sel.Name]
			if users == nil {
				users = map[string]bool{}
				f.testSelectors[n.Sel.Name] = users
			}
			users[pkgPath] = true
		case *ast.Ident:
			for _, p := range dotImports {
				f.testQualified[p+"."+n.Name] = true
			}
		}
		return true
	})
}

// scanScope adds the interfaces declared in pkg and, transitively, in
// everything it imports, so a method satisfying io.Reader or
// fmt.Stringer counts as used without any call naming it.
func (f *unusedFacts) scanScope(pkg *types.Package) {
	if f.scanned[pkg] {
		return
	}
	f.scanned[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			f.addInterface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		f.scanScope(imp)
	}
}

func (f *unusedFacts) addInterface(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	sigs := make([]methodSig, 0, iface.NumMethods())
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		s := m.Type().(*types.Signature)
		sigs = append(sigs, methodSig{name: m.Name(), params: s.Params().Len(), results: s.Results().Len()})
	}
	f.ifaces[fmt.Sprint(sigs)] = sigs
}

func methodSigs(ms *types.MethodSet) []methodSig {
	sigs := make([]methodSig, 0, ms.Len())
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj().(*types.Func)
		s := fn.Type().(*types.Signature)
		sigs = append(sigs, methodSig{name: fn.Name(), params: s.Params().Len(), results: s.Results().Len(), key: objKey(fn)})
	}
	return sigs
}

// satisfying marks the methods of every type that, by name and arity,
// implements some collected interface.
func (f *unusedFacts) satisfying() map[string]bool {
	used := map[string]bool{}
	for _, methods := range f.typeMethods {
		byName := make(map[string]methodSig, len(methods))
		for _, m := range methods {
			byName[m.name] = m
		}
	iface:
		for _, want := range f.ifaces {
			for _, w := range want {
				m, ok := byName[w.name]
				if !ok || m.params != w.params || m.results != w.results {
					continue iface
				}
			}
			for _, w := range want {
				used[byName[w.name].key] = true
			}
		}
	}
	return used
}

func finishUnusedexport(prog *Program, report func(pos token.Position, format string, args ...any)) {
	facts := unusedFactsOf(prog)
	viaIface := facts.satisfying()
	for _, d := range facts.decls {
		if facts.used[d.key] || facts.testQualified[d.key] {
			continue
		}
		if d.kind == "method" {
			if viaIface[d.key] || otherThan(facts.testSelectors[d.name], d.pkg) {
				continue
			}
		}
		report(d.pos, "exported %s %s is referenced only by its own package's tests, if at all; delete it or mark it //lint:allow unusedexport(reason)",
			d.kind, d.name)
	}
}

// otherThan reports whether set holds a package other than pkg.
func otherThan(set map[string]bool, pkg string) bool {
	for p := range set {
		if p != pkg {
			return true
		}
	}
	return false
}
