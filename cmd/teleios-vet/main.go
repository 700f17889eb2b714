// Command teleios-vet is the multichecker for the project-invariant
// analyzer suite in internal/lint: lockcheck, fsxcheck, ctxcheck,
// failpointcheck, errdropcheck, and unusedexport.
//
// It runs in two modes:
//
//	teleios-vet ./...                      standalone: loads packages via
//	                                       `go list -export`, runs every
//	                                       analyzer, including the
//	                                       whole-program checks (failpoint
//	                                       orphans, unusedexport)
//	go vet -vettool=$(pwd)/bin/teleios-vet ./...
//	                                       unitchecker protocol: the go
//	                                       command hands one package config
//	                                       at a time (with -V=full / -flags
//	                                       handshakes), analyzers run
//	                                       against the build's own export
//	                                       data, results are cached by the
//	                                       build cache
//
// Exit status: 0 clean, 1 driver error, 2 diagnostics reported —
// matching go vet's conventions.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	// Protocol handshakes come before flag parsing: the go command
	// probes `-V=full` (tool identity for the build cache) and
	// `-flags` (supported flag list) with no other arguments.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		printVersion()
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		printFlags()
		return
	}

	analyzers := lint.Analyzers()
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (standalone mode)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: teleios-vet [flags] [package pattern ...]\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(realpath teleios-vet) [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	var active []*lint.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0], active))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(runStandalone(args, active, *jsonOut))
}

// printVersion emits the `-V=full` line the go command hashes into
// its action IDs. The executable's own digest keys the build cache,
// so editing an analyzer invalidates prior vet results.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, h.Sum(nil))
}

// printFlags answers the go command's `-flags` probe with the JSON
// flag inventory it uses to validate pass-through vet flags.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	for _, a := range lint.Analyzers() {
		out = append(out, jsonFlag{Name: a.Name, Bool: true, Usage: "enable the " + a.Name + " analyzer"})
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// runStandalone loads the patterns with the go toolchain and runs the
// full suite, whole-program checks included.
func runStandalone(patterns []string, analyzers []*lint.Analyzer, jsonOut bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-vet:", err)
		return 1
	}
	fset := token.NewFileSet()
	pkgs, err := lint.Load(fset, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-vet:", err)
		return 1
	}
	// The failpoint orphan check needs to see every plant in the
	// module; only enable it when the patterns cover the whole tree,
	// so `teleios-vet ./internal/strabon/` does not report false
	// orphans.
	whole := false
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			whole = true
		}
	}
	diags, err := lint.Check(pkgs, analyzers, lint.CheckOptions{WholeProgram: whole})
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-vet:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "teleios-vet:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, relativize(cwd, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "teleios-vet: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}

// relativize shortens absolute file paths under cwd for readable
// output.
func relativize(cwd string, d lint.Diagnostic) string {
	s := d.String()
	if rel, err := filepath.Rel(cwd, d.Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = strings.TrimPrefix(s, d.Position.Filename)
		s = rel + s
	}
	return s
}

// vetConfig is the JSON the go command writes for each package when
// driving a -vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the single package described by cfgFile.
func runUnit(cfgFile string, analyzers []*lint.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "teleios-vet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The go command expects the output facts file to exist after any
	// successful run; this suite exchanges no facts, so it is empty.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		writeVetx()
		return 0
	}

	pkg, err := lint.LoadUnit(cfg.ImportPath, cfg.Dir, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintf(os.Stderr, "teleios-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	// Per-package protocol: no whole-program Finish hooks here (the
	// failpoint orphan check needs the full plant set and runs in the
	// standalone `make lint` pass instead).
	diags, err := lint.Check([]*lint.Package{pkg}, analyzers, lint.CheckOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-vet:", err)
		return 1
	}
	writeVetx()
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
