// Package lint is the project-invariant analyzer suite: a set of
// static checks that mechanically enforce the disciplines the previous
// PRs established by convention — ...Locked methods called only under
// the store mutex (lockcheck), durable writes routed through
// internal/fsx (fsxcheck), operator loops honouring context
// cancellation (ctxcheck), failpoint names matching the documented
// matrix (failpointcheck), no dropped errors on durability paths
// (errdropcheck), and no declaration that no binary reaches
// (unreachable).
//
// The vocabulary deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, the analysistest golden-file harness)
// so the suite can migrate to the real framework wholesale if the
// dependency ever becomes available; this build environment has no
// module proxy access, so the driver layer — package loading from
// `go list -export` gc export data, the `go vet -vettool` unitchecker
// protocol, and the //lint:allow suppression directive — is
// implemented here on the standard library alone.
//
// # Suppression directives
//
// A diagnostic is suppressed by a directive comment on the same line,
// or on the line immediately above the flagged one:
//
//	//lint:allow fsxcheck(WAL segments are append-only; rename cannot apply)
//
// The reason inside the parentheses is mandatory: a directive without
// one is itself reported. Directives name exactly one analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// directives. It must be a valid identifier.
	Name string

	// Doc is the one-paragraph description printed by -help and
	// quoted in docs/static-analysis.md.
	Doc string

	// Run performs the per-package analysis, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass) error

	// Finish, if non-nil, runs once after every package has been
	// analyzed, for whole-program invariants (failpointcheck's
	// orphaned-registration check, unreachable). It only runs in
	// standalone mode over the full package pattern; the per-package
	// `go vet -vettool` protocol cannot see the whole program at once.
	Finish func(prog *Program, report func(pos token.Position, format string, args ...any))
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's non-test files. Test files are
	// type-checked (the package would not compile without them in a
	// test variant) but never analyzed: chaos and corruption tests
	// intentionally violate the production disciplines.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Program accumulates cross-package state for Finish hooks.
	Program *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding, position already resolved.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	pos := d.Position.String()
	if !d.Position.IsValid() {
		pos = d.Position.Filename
		if pos == "" {
			pos = "-"
		}
	}
	return fmt.Sprintf("%s: %s: %s", pos, d.Analyzer, d.Message)
}

// A Program is the shared blackboard analyzers use to accumulate
// whole-program facts across packages for their Finish hook.
type Program struct {
	mu    sync.Mutex
	facts map[string]any
}

// Fact returns the fact stored under key, creating it with mk on first
// use. Callers own the returned value's interior synchronization; the
// driver runs packages sequentially, so none is needed in practice.
func (pr *Program) Fact(key string, mk func() any) any {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.facts == nil {
		pr.facts = map[string]any{}
	}
	v, ok := pr.facts[key]
	if !ok {
		v = mk()
		pr.facts[key] = v
	}
	return v
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Lockcheck, Fsxcheck, Ctxcheck, Failpointcheck, Errdropcheck, Unreachable}
}

// CheckOptions configures a driver run.
type CheckOptions struct {
	// WholeProgram enables Finish hooks; set it only when the package
	// set covers the entire module (otherwise failpointcheck would
	// report false orphans).
	WholeProgram bool
}

// Check runs the analyzers over the loaded packages, applies the
// //lint:allow suppression directives, and returns the surviving
// diagnostics sorted by position. Malformed directives (no reason, or
// an unknown analyzer name) are reported as findings themselves.
func Check(pkgs []*Package, analyzers []*Analyzer, opts CheckOptions) ([]Diagnostic, error) {
	prog := &Program{}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	dirs := directiveIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs.addFile(pkg.Fset, f, known, collect)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Program:  prog,
				report:   collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	if opts.WholeProgram {
		for _, a := range analyzers {
			if a.Finish == nil {
				continue
			}
			name := a.Name
			a.Finish(prog, func(pos token.Position, format string, args ...any) {
				collect(Diagnostic{Analyzer: name, Position: pos, Message: fmt.Sprintf(format, args...)})
			})
		}
	}

	kept := dirs.filter(diags)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Position, kept[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// directiveRe matches //lint:allow analyzer(reason). The reason group
// is everything between the outermost parens.
var directiveRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_]+)\((.*)\)\s*$`)

// A directive suppresses one analyzer on one line (and the line below,
// so a directive can sit on its own line above the flagged statement).
type directive struct {
	analyzer string
	line     int
}

type directiveIndex map[string][]directive // filename -> directives

// addFile parses every comment in f, indexing well-formed directives
// and reporting malformed ones through report.
func (di directiveIndex) addFile(fset *token.FileSet, f *ast.File, known map[string]bool, report func(Diagnostic)) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//lint:") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := directiveRe.FindStringSubmatch(text)
			if m == nil {
				report(Diagnostic{Analyzer: "lintdirective", Position: pos,
					Message: "malformed directive; want //lint:allow analyzer(reason)"})
				continue
			}
			name, reason := m[1], strings.TrimSpace(m[2])
			if !known[name] {
				report(Diagnostic{Analyzer: "lintdirective", Position: pos,
					Message: fmt.Sprintf("directive names unknown analyzer %q", name)})
				continue
			}
			if reason == "" {
				report(Diagnostic{Analyzer: "lintdirective", Position: pos,
					Message: fmt.Sprintf("//lint:allow %s() needs a reason", name)})
				continue
			}
			di[pos.Filename] = append(di[pos.Filename], directive{analyzer: name, line: pos.Line})
		}
	}
}

// filter drops diagnostics covered by a directive on the same line or
// the line immediately above.
func (di directiveIndex) filter(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if d.Analyzer != "lintdirective" && di.covers(d) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func (di directiveIndex) covers(d Diagnostic) bool {
	for _, dir := range di[d.Position.Filename] {
		if dir.analyzer != d.Analyzer {
			continue
		}
		if dir.line == d.Position.Line || dir.line == d.Position.Line-1 {
			return true
		}
	}
	return false
}
