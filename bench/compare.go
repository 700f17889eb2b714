package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// series maps workload → metric → the values of that pair's runs.
type series map[string]map[string][]float64

func (s series) add(outcomes []*Outcome) {
	for _, out := range outcomes {
		if s[out.Workload] == nil {
			s[out.Workload] = map[string][]float64{}
		}
		for name, v := range out.Metrics {
			s[out.Workload][name] = append(s[out.Workload][name], v)
		}
	}
}

// worsening is by how much of a's median b's median is worse, in the
// metric's own direction; negative when b is better.
func worsening(m MetricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSeries prints, per workload × end-to-end metric, both medians,
// quartiles and the relative difference, and reports how many pairs
// break the metric's bound. With symmetric set, either side being worse
// counts (A/A); otherwise only b being worse than a does.
func compareSeries(spec *Spec, a, b series, symmetric bool, w io.Writer) (violations int) {
	fmt.Fprintf(w, "%-18s %-22s %12s %23s %12s %23s %8s %6s\n",
		"workload", "metric", "median A", "[q1, q3]", "median B", "[q1, q3]", "B vs A", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			a1, a3 := Quartiles(va)
			b1, b3 := Quartiles(vb)
			worse := worsening(m, ma, mb)
			bad := worse > m.Bound || (symmetric && worsening(m, mb, ma) > m.Bound)
			mark := ""
			if bad {
				violations++
				mark = "  <-- beyond the bound"
			}
			fmt.Fprintf(w, "%-18s %-22s %12.4f [%10.4f,%10.4f] %12.4f [%10.4f,%10.4f] %+7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, ma, a1, a3, mb, b1, b3, 100*worse, 100*m.Bound, mark)
		}
	}
	return violations
}

// runSets is A/A mode: `sets` interleaved sets of `runs` runs of this
// same binary. It fails when any end-to-end metric's medians differ by
// more than its bound, or any run's outputs were wrong.
func runSets(c *Config, spec *Spec, workloads []string, sets, runs int, w io.Writer) error {
	if sets != 2 {
		return fmt.Errorf("-sets takes 1 or 2, not %d", sets)
	}
	results := []series{{}, {}}
	files := []*ResultFile{{Stamp: c.stamp(false)}, {Stamp: c.stamp(false)}}
	incorrect := 0
	for r := 0; r < runs; r++ {
		for set := range results {
			c.logf("A/A: run %d of %d, set %c", r+1, runs, 'A'+set)
			outcomes, err := c.runAll(workloads, false)
			if err != nil {
				return err
			}
			for _, out := range outcomes {
				if !out.Correct() {
					incorrect++
					printOutcomes(c.Log, []*Outcome{out}, nil)
				}
			}
			results[set].add(outcomes)
			files[set].Runs = append(files[set].Runs, outcomes...)
		}
	}
	for set, rf := range files {
		if err := saveResult(filepath.Join(c.Env.OutDir, fmt.Sprintf("aa-set-%c.json", 'a'+set)), rf); err != nil {
			return err
		}
	}
	violations := compareSeries(spec, results[0], results[1], true, w)
	if violations > 0 || incorrect > 0 {
		return fmt.Errorf("A/A failed: %d metric × workload pairs beyond their bound, %d incorrect runs", violations, incorrect)
	}
	return nil
}

func loadResult(path string) (series, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := series{}
	s.add(rf.Runs)
	return s, nil
}

// compareFiles applies the bounds to two saved result files: b may not
// be worse than a by more than a metric's bound.
func compareFiles(spec *Spec, pathA, pathB string, w io.Writer) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if n := compareSeries(spec, a, b, false, w); n > 0 {
		return fmt.Errorf("%d metric × workload pairs of %s are worse than %s by more than their bound", n, pathB, pathA)
	}
	return nil
}
