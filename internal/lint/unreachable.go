package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unreachable reports every package-level func, method, type, var and
// const of a non-test file, exported or not, that no root reaches
// through the names declarations use. The roots are main in each main
// package, the init functions and var initializers of every package a
// main package links, the exported names and exported method sets of the
// root package, and names with a //lint:allow unreachable(reason)
// directive. A method of a reached type is also reached when, by name
// and arity, it helps some type satisfy an interface the program or its
// imports declare (String, Error, Read, the geo.Geometry methods). Tests
// count for nothing. The rule is whole-program, so it runs only as a
// Finish hook in the standalone pass.
var Unreachable = &Analyzer{
	Name: "unreachable",
	Doc: "declarations that no main, init, root-package API or allow directive reaches are dead; " +
		"delete them or annotate with //lint:allow unreachable(reason)",
	Run:    runUnreachable,
	Finish: finishUnreachable,
}

// A graphDecl is one package-level declaration in a non-test file.
type graphDecl struct {
	key, name string
	kind      string // "func", "method", "type", "var" or "const"
	pos       token.Position
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

// reachFacts is the whole-program state Run accumulates for Finish.
type reachFacts struct {
	decls []graphDecl
	// edges maps a node to the nodes it names. A node is an objKey or
	// "package <path>", which names the package's imports and what its
	// init functions and var initializers name: all run once linked.
	edges map[string][]string
	roots []string // nodes reached whatever the program does
	// ifaces holds every distinct non-empty method set of an interface
	// type the program mentions or imports, keyed by its fmt rendering.
	ifaces map[string][]methodSig
	// typeMethods holds each named type's pointer method set.
	typeMethods [][]methodSig
	scanned     map[*types.Package]bool
}

// implicitInterfaces are the method sets errors.Is, errors.As and
// errors.Unwrap test for through interfaces declared inside function
// bodies, which no package scope holds.
var implicitInterfaces = []methodSig{
	{name: "Unwrap", params: 0, results: 1},
	{name: "Is", params: 1, results: 1},
	{name: "As", params: 1, results: 1},
}

func reachFactsOf(prog *Program) *reachFacts {
	return prog.Fact("unreachable.facts", func() any {
		f := &reachFacts{
			edges:   map[string][]string{},
			ifaces:  map[string][]methodSig{},
			scanned: map[*types.Package]bool{},
		}
		for _, m := range implicitInterfaces {
			f.ifaces[fmt.Sprint(m)] = []methodSig{m}
		}
		return f
	}).(*reachFacts)
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
			named := namedOf(recv.Type())
			if named == nil {
				return "" // an interface method
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf returns the origin of the named type t or *t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

func runUnreachable(pass *Pass) error {
	f := reachFactsOf(pass.Program)
	node := "package " + pass.Pkg.Path()
	isMain := pass.Pkg.Name() == "main"
	if isMain {
		f.roots = append(f.roots, node)
	}
	for _, imp := range pass.Pkg.Imports() {
		f.edges[node] = append(f.edges[node], "package "+imp.Path())
	}
	// The root package's (the import path without a slash) exported
	// names are API, and so are those of a package whose clause carries
	// an allow directive (test support).
	api := !isMain && !strings.Contains(pass.Pkg.Path(), "/")
	for _, file := range pass.Files {
		allowed := map[int]bool{} // lines with a well-formed directive
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m != nil && m[1] == pass.Analyzer.Name && strings.TrimSpace(m[2]) != "" {
					allowed[pass.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if line := pass.Fset.Position(file.Package).Line; allowed[line] || allowed[line-1] {
			api = true
		}
		for _, decl := range file.Decls {
			f.declare(pass, decl, isMain, allowed)
		}
	}
	for _, tv := range pass.Info.Types {
		f.addInterface(tv.Type)
	}
	f.scanScope(pass.Pkg)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if api && obj.Exported() {
			f.roots = append(f.roots, objKey(obj))
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		methods := methodSigs(types.NewMethodSet(types.NewPointer(tn.Type())))
		f.typeMethods = append(f.typeMethods, methods)
		for _, m := range methods {
			if api && tn.Exported() && token.IsExported(m.name) {
				f.roots = append(f.roots, m.key)
			}
		}
	}
	return nil
}

// declare records decl's names as graph nodes with edges to what they
// name. A name with an allow directive on its line or the line above is
// a root, and so is main in a main package.
func (f *reachFacts) declare(pass *Pass, decl ast.Decl, isMain bool, allowed map[int]bool) {
	pkgNode := "package " + pass.Pkg.Path()
	add := func(id *ast.Ident, kind string, node ast.Node) string {
		refs := namedIn(pass.Info, node)
		init := kind == "func" && id.Name == "init"
		if init || kind == "var" {
			f.edges[pkgNode] = append(f.edges[pkgNode], refs...)
		}
		obj := pass.Info.Defs[id]
		key := objKey(obj)
		if key == "" || init {
			return ""
		}
		if named := namedOf(obj.Type()); named != nil && (kind == "var" || kind == "const") {
			refs = append(refs, objKey(named.Obj())) // an implicitly typed const names no type
		}
		f.edges[key] = append(f.edges[key], refs...)
		pos := pass.Fset.Position(id.Pos())
		if allowed[pos.Line] || allowed[pos.Line-1] || isMain && kind == "func" && id.Name == "main" {
			f.roots = append(f.roots, key)
		}
		f.decls = append(f.decls, graphDecl{key: key, name: id.Name, kind: kind, pos: pos})
		return key
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		kind := "func"
		if d.Recv != nil {
			kind = "method"
		}
		add(d.Name, kind, d)
	case *ast.GenDecl:
		first := ""
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(s.Name, "type", s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					key := add(id, d.Tok.String(), s)
					if key == "" || d.Tok != token.CONST || !d.Lparen.IsValid() {
						continue
					}
					// A const block is an enumeration or a format table.
					// It is reached whole: dropping one member would
					// renumber or hide the rest.
					if first == "" {
						first = key
					}
					f.edges[key] = append(f.edges[key], first)
					f.edges[first] = append(f.edges[first], key)
				}
			}
		}
	}
}

// namedIn returns the keys of the package-level objects and methods
// that n's identifiers use.
func namedIn(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := objKey(info.Uses[id]); key != "" {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// scanScope adds the interfaces declared in pkg and, transitively, in
// everything it imports, so a method satisfying io.Reader or
// fmt.Stringer counts as used without any call naming it.
func (f *reachFacts) scanScope(pkg *types.Package) {
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

func (f *reachFacts) addInterface(t types.Type) {
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
func (f *reachFacts) satisfying() map[string]bool {
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

func finishUnreachable(prog *Program, report func(pos token.Position, format string, args ...any)) {
	f := reachFactsOf(prog)
	// An interface-satisfying method is reached with its receiver type.
	viaIface := f.satisfying()
	for _, d := range f.decls {
		if d.kind == "method" && viaIface[d.key] {
			recv := d.key[:strings.LastIndex(d.key, ".")]
			f.edges[recv] = append(f.edges[recv], d.key)
		}
	}
	reached := map[string]bool{}
	queue := slices.Clone(f.roots)
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !reached[k] {
			reached[k] = true
			queue = append(queue, f.edges[k]...)
		}
	}
	for _, d := range f.decls {
		if !reached[d.key] {
			report(d.pos, "%s %s is reached from no main or init, root-package API or allow directive; delete it or mark it //lint:allow unreachable(reason)",
				d.kind, d.name)
		}
	}
}
