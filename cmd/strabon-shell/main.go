// Command strabon-shell is an interactive stSPARQL endpoint over an
// N-Triples file. Statements are terminated by a line containing only ";".
// Prefix any read statement with EXPLAIN to print the physical plan
// (join order, estimated vs. measured cardinalities, morsel
// parallelism) instead of the rows.
//
// Usage:
//
//	strabon-shell [-nt FILE] [-linked] [-max-query-parallelism N]
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"flag"

	"repro/internal/linkeddata"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

func main() {
	ntFile := flag.String("nt", "", "load an N-Triples file")
	linked := flag.Bool("linked", false, "preload the synthetic linked open data")
	maxPar := flag.Int("max-query-parallelism", 0, "morsel-parallel workers per query (0 = all cores, 1 = serial)")
	flag.Parse()

	st := strabon.NewStore()
	if *ntFile != "" {
		f, err := os.Open(*ntFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "strabon-shell:", err)
			os.Exit(1)
		}
		if _, err := st.LoadNTriples(f); err != nil {
			fmt.Fprintln(os.Stderr, "strabon-shell:", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *linked {
		st.AddAll(linkeddata.All())
	}
	eng := stsparql.New(st)
	eng.MaxParallelism = *maxPar
	stats := st.Stats()
	fmt.Printf("strabon-shell: %d triples, %d spatial literals. End statements with a ';' line (EXPLAIN prefix prints plans).\n",
		stats.Triples, stats.SpatialLiterals)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var buf strings.Builder
	fmt.Print("stsparql> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == ";" {
			query := strings.TrimSpace(buf.String())
			buf.Reset()
			if query != "" {
				execute(eng, query)
			}
			fmt.Print("stsparql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
}

func execute(eng *stsparql.Engine, query string) {
	res, err := eng.Query(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	switch {
	case res.Triples != nil:
		for _, t := range res.Triples {
			fmt.Println(t)
		}
	case len(res.Vars) == 1 && res.Vars[0] == "plan":
		// EXPLAIN output: print the plan lines verbatim.
		for _, b := range res.Bindings {
			fmt.Println(b["plan"].Value)
		}
	case res.Vars != nil:
		for _, b := range res.Bindings {
			var cells []string
			for _, v := range res.Vars {
				if t, ok := b[v]; ok {
					cells = append(cells, "?"+v+"="+t.String())
				}
			}
			fmt.Println(strings.Join(cells, " "))
		}
		fmt.Printf("(%d row(s))\n", len(res.Bindings))
	case res.Affected > 0:
		fmt.Printf("ok (%d affected)\n", res.Affected)
	default:
		fmt.Println(res.Bool)
	}
}
