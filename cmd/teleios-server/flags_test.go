package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// flagRowRe matches one body row of the "Flags" table in
// docs/operations.md: | `-name` | `default` | meaning |
var flagRowRe = regexp.MustCompile("^\\| `-([a-z-]+)` \\| `([^`]*)` \\| (.+) \\|$")

// documentedFlags parses the "## Flags" table: name -> documented default.
func documentedFlags(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]string{}
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = line == "## Flags"
			continue
		}
		if !inSection {
			continue
		}
		m := flagRowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if _, dup := doc[m[1]]; dup {
			t.Errorf("flag -%s documented twice in docs/operations.md", m[1])
		}
		doc[m[1]] = strings.Trim(m[2], `"`)
	}
	if len(doc) == 0 {
		t.Fatal("docs/operations.md: no rows found under \"## Flags\" (section header or table format changed?)")
	}
	return doc
}

// TestFlagTableMatchesBinary pins the "Flags" table in docs/operations.md
// to registerFlags in both directions, defaults included.
func TestFlagTableMatchesBinary(t *testing.T) {
	doc := documentedFlags(t)
	fs := flag.NewFlagSet("teleios-server", flag.ContinueOnError)
	registerFlags(fs, new(serverConfig))
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := doc[f.Name]
		if !ok {
			t.Errorf("flag -%s is defined but missing from the Flags table in docs/operations.md", f.Name)
			return
		}
		if def != f.DefValue {
			t.Errorf("flag -%s: documented default %q, real default %q", f.Name, def, f.DefValue)
		}
		delete(doc, f.Name)
	})
	for name := range doc {
		t.Errorf("flag -%s is documented in docs/operations.md but not defined", name)
	}
}

// TestRetiredFlagsStayGone: the flags removed since PR 12 are neither
// defined nor still mentioned by the docs that used to describe them.
func TestRetiredFlagsStayGone(t *testing.T) {
	retired := []string{"legacy-eval", "legacy-sciql", "snapshot-format", "store", "save", "wal-group-window"}
	fs := flag.NewFlagSet("teleios-server", flag.ContinueOnError)
	registerFlags(fs, new(serverConfig))
	for _, name := range retired {
		if fs.Lookup(name) != nil {
			t.Errorf("retired flag -%s is defined again", name)
		}
	}
	// A mention is the flag spelled with its dash, not as the tail of a
	// longer word or flag (-data-dir's "-dir", "auto-save").
	mention := regexp.MustCompile(`(^|[^\w-])-(` + strings.Join(retired, "|") + `)($|[^\w-])`)
	for _, path := range []string{"README.md", "docs/persistence.md", "docs/performance.md", "docs/stsparql.md"} {
		data, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := mention.FindStringSubmatch(line); m != nil {
				t.Errorf("%s:%d still mentions the retired flag -%s", path, i+1, m[2])
			}
		}
	}
}
