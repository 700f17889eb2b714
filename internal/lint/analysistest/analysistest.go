// Package analysistest runs a lint.Analyzer over golden fixture
// packages under testdata/src and checks its diagnostics against
// `// want "regexp"` comments in the fixture sources — the same
// contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the stdlib-only framework in internal/lint.
//
// A fixture package lives at testdata/src/<importpath>/ relative to
// the calling test's directory. Fixtures may import each other and any
// real module or stdlib package; a fixture whose import path collides
// with a real package (e.g. repro/internal/persist) shadows it, which
// is how path-scoped analyzers are exercised without touching real
// code.
//
// Each `// want` comment anchors to the line it appears on and may
// carry several quoted regexps, each of which must match a distinct
// diagnostic on that line. A `/* want ... */` block comment works the
// same way; it lets a line that ends in another line comment, such as a
// //lint:allow directive, carry an expectation. Unmatched expectations and unexpected
// diagnostics both fail the test. Because the harness drives
// lint.Check, `//lint:allow` suppression is live in fixtures: a
// suppressed line simply carries no want comment.
//
//lint:allow unreachable(test support: the golden-file harness of the internal/lint tests)
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/lint"
)

// Run loads the fixture packages named by pkgPaths, applies analyzer a
// (through lint.Check, so suppression directives are honored), and
// compares the diagnostics against the fixtures' want comments.
func Run(t *testing.T, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, a, lint.CheckOptions{}, pkgPaths)
}

// RunWholeProgram is Run with the analyzer's Finish hook enabled: the
// fixture packages stand for the whole program.
func RunWholeProgram(t *testing.T, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	run(t, a, lint.CheckOptions{WholeProgram: true}, pkgPaths)
}

func run(t *testing.T, a *lint.Analyzer, opts lint.CheckOptions, pkgPaths []string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := lint.LoadFixture(fset, filepath.Join("testdata", "src"), pkgPaths)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := lint.Check(pkgs, []*lint.Analyzer{a}, opts)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, pkgs)
	used := make([]bool, len(diags))
	for _, w := range wants {
		if !w.claim(diags, used) {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("%s: unexpected diagnostic: %s: %s", posKey(d.Position), d.Analyzer, d.Message)
		}
	}
}

// want is one expectation: a regexp that must match a diagnostic
// reported on (file, line).
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func (w *want) claim(diags []lint.Diagnostic, used []bool) bool {
	for i, d := range diags {
		if used[i] || d.Position.Filename != w.file || d.Position.Line != w.line {
			continue
		}
		if w.re.MatchString(d.Message) {
			used[i] = true
			return true
		}
	}
	return false
}

// wantRe matches the expectation marker; quoted regexps follow.
var (
	wantRe   = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)
	quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")
)

// collectWants scans every fixture comment for want markers.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWant(t, fset, c)...)
				}
			}
		}
	}
	return wants
}

func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) []*want {
	t.Helper()
	m := wantRe.FindStringSubmatch(c.Text)
	if m == nil {
		return nil
	}
	pos := fset.Position(c.Pos())
	quoted := quotedRe.FindAllString(m[1], -1)
	if len(quoted) == 0 {
		t.Errorf("%s:%d: malformed want comment %q: no quoted regexp", pos.Filename, pos.Line, c.Text)
		return nil
	}
	var wants []*want
	for _, q := range quoted {
		var src string
		if q[0] == '`' {
			src = q[1 : len(q)-1]
		} else {
			var err error
			if src, err = strconv.Unquote(q); err != nil {
				t.Errorf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
				continue
			}
		}
		re, err := regexp.Compile(src)
		if err != nil {
			t.Errorf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, q, err)
			continue
		}
		wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
	}
	return wants
}

func posKey(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
