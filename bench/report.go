package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// MetricSpec is one metric declaration of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the contract this benchmark prints to.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Options are the command's flags.
type Options struct {
	Root     string
	Workload string
	Seed     int64
	Seconds  float64
	Trace    int
	Sets     int
	Runs     int
	Compare  bool
	Smoke    bool
	Args     []string
	Log      io.Writer // progress and the driver form's summary (default os.Stderr)
}

// Stamp records where and how a result file was produced.
type Stamp struct {
	Commit      string   `json:"commit"`
	Seed        int64    `json:"seed"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	ServerFlags []string `json:"server_flags"`
	Seconds     float64  `json:"seconds"`
	Traced      bool     `json:"traced"`
	When        string   `json:"when"`
}

// ResultFile is what a run saves under bench/out and what -compare
// reads: every run of every workload, most recent last.
type ResultFile struct {
	Stamp Stamp      `json:"stamp"`
	Runs  []*Outcome `json:"runs"`
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func (c *Config) stamp(traced bool) Stamp {
	return Stamp{
		Commit: commitOf(c.Env.Root), Seed: c.Seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		ServerFlags: c.flags(""), Seconds: c.Measure.Seconds(), Traced: traced,
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func saveResult(path string, rf *ResultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Main runs the command.
func Main(env *Env, o Options, stdout io.Writer) error {
	spec, err := LoadSpec(env.Root)
	if err != nil {
		return err
	}
	if o.Compare {
		if len(o.Args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(spec, o.Args[0], o.Args[1], stdout)
	}
	workloads := Workloads
	if o.Workload != "" {
		if !slices.Contains(Workloads, o.Workload) {
			return fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
		}
		workloads = []string{o.Workload}
	}
	if o.Seconds <= 0 {
		o.Seconds = float64(spec.RunSeconds)
	}
	if err := env.BuildServer(); err != nil {
		return err
	}
	cfg := DefaultConfig(env, o.Seed, o.Seconds)
	if o.Log != nil {
		cfg.Log = o.Log
	}
	if o.Trace == 1 {
		cfg.Setups = 1 // setup_s is an end-to-end metric; the traced pass needs only the directory
	}
	if o.Smoke {
		cfg.Scale, cfg.Setups = SmokeScale, 1
		cfg.Measure, cfg.Warm, cfg.Probe = time.Second, 200*time.Millisecond, 300*time.Millisecond
		cfg.CheckpointEvery = time.Second
	}
	if o.Sets >= 2 {
		return runSets(&cfg, spec, workloads, o.Sets, o.Runs, stdout)
	}
	outcomes, err := cfg.runAll(workloads, o.Trace == 1)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	name := "result"
	if o.Trace == 1 {
		declared, name = spec.PerLayer, "trace-result"
	}
	rf := &ResultFile{Stamp: cfg.stamp(o.Trace == 1), Runs: outcomes}
	if err := saveResult(filepath.Join(env.OutDir, name+".json"), rf); err != nil {
		return err
	}
	for _, out := range outcomes {
		if err := checkDeclared(out, declared); err != nil {
			return err
		}
	}
	if o.Workload != "" {
		// The driver's form: the human summary goes to stderr and the
		// last line of stdout is the one JSON object it parses.
		printOutcomes(cfg.Log, outcomes, declared)
		return printContractLine(stdout, outcomes[0], declared)
	}
	printOutcomes(stdout, outcomes, declared)
	for _, out := range outcomes {
		if !out.Correct() {
			return ErrIncorrect
		}
	}
	return nil
}

// runAll sets up once and runs the given workloads, end to end or
// traced.
func (c *Config) runAll(workloads []string, traced bool) ([]*Outcome, error) {
	g, err := c.Setup()
	if err != nil {
		return nil, err
	}
	or, reads, err := c.oracle(g, workloads)
	if err != nil {
		return nil, err
	}
	defer or.Close()
	var outcomes []*Outcome
	for _, w := range workloads {
		var out *Outcome
		if traced {
			out, err = c.Trace(w, g, or, reads)
		} else {
			out, err = c.Run(w, g, reads)
		}
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, out)
	}
	return outcomes, nil
}

// oracle opens the in-process engine over a copy of the golden
// directory and answers the read pool: the whole pool, or just the hot
// set when nothing else is going to be sent.
func (c *Config) oracle(g *Golden, workloads []string) (*Oracle, *Verifier, error) {
	dir, err := c.Env.TempDir("oracle")
	if err != nil {
		return nil, nil, err
	}
	if err := CopyDir(g.Dir, dir); err != nil {
		return nil, nil, err
	}
	or, err := OpenOracle(dir)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	pool := ReadPool(c.Seed, c.Scale, coldPoolSize)
	need := hotSetSize
	for _, w := range workloads {
		if w != CatalogueHot {
			need = len(pool)
		}
	}
	answers, err := or.Answers(pool[:need], runtime.NumCPU())
	if err != nil {
		or.Close()
		return nil, nil, err
	}
	empty := 0
	for _, a := range answers {
		if a.Rows == 0 {
			empty++
		}
	}
	c.logf("oracle: answered %d read texts in %.2f s (%d with no rows)", need, time.Since(start).Seconds(), empty)
	return or, NewVerifier(pool[:need], answers), nil
}

// checkDeclared makes sure a run produced every metric BENCHMARK.json
// declares.
func checkDeclared(out *Outcome, declared []MetricSpec) error {
	for _, m := range declared {
		if _, ok := out.Metrics[m.Name]; !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", out.Workload, m.Name)
		}
	}
	return nil
}

func printOutcomes(w io.Writer, outcomes []*Outcome, declared []MetricSpec) {
	for _, out := range outcomes {
		fmt.Fprintf(w, "\n== %s: attempted %d, succeeded %d, failed %d, fail_ratio %.5f\n",
			out.Workload, out.Attempted, out.Succeeded, out.Failed, float64(out.Failed)/float64(max(out.Attempted, 1)))
		for _, m := range declared {
			fmt.Fprintf(w, "%-20s %-36s %14.4f %s\n", out.Workload, m.Name, out.Metrics[m.Name], m.Unit)
		}
		keys := make([]string, 0, len(out.Info))
		for k := range out.Info {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-20s   (%s = %.4f)\n", out.Workload, k, out.Info[k])
		}
		for _, p := range out.Problems {
			fmt.Fprintf(w, "%-20s   PROBLEM: %s\n", out.Workload, p)
		}
	}
}

// printContractLine writes the single JSON object the driver reads.
func printContractLine(w io.Writer, out *Outcome, declared []MetricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct(), max(out.Attempted, 1), out.Failed, map[string]value{}}
	for _, m := range declared {
		line.Metrics[m.Name] = value{out.Metrics[m.Name], m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
