// Command sciql-shell is an interactive SciQL session, optionally with a
// satellite repository's frames pre-registered as arrays. Statements are
// terminated by a line containing only ";".
//
// Usage:
//
//	sciql-shell [-dir REPO]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/sciql"
	"repro/internal/vault"
)

func main() {
	dir := flag.String("dir", "", "repository of .sev products to register as arrays")
	flag.Parse()

	eng := sciql.NewEngine()
	if *dir != "" {
		v := vault.New()
		if err := v.Attach(*dir); err != nil {
			fmt.Fprintln(os.Stderr, "sciql-shell:", err)
			os.Exit(1)
		}
		for _, id := range v.IDs() {
			f, err := v.Frame(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sciql-shell:", err)
				os.Exit(1)
			}
			if err := ingest.RegisterFrame(eng, core.ArrayPrefix(id), f); err != nil {
				fmt.Fprintln(os.Stderr, "sciql-shell:", err)
				os.Exit(1)
			}
			fmt.Printf("registered %s (bands as %s_<band>)\n", id, core.ArrayPrefix(id))
		}
	}
	fmt.Println("sciql-shell: end statements with a ';' line.")

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var buf strings.Builder
	fmt.Print("sciql> ")
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == ";" {
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
			if stmt != "" {
				execute(eng, stmt)
			}
			fmt.Print("sciql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
}

func execute(eng *sciql.Engine, stmt string) {
	res, err := eng.Exec(stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Table == nil {
		fmt.Printf("ok (%d affected)\n", res.Affected)
		return
	}
	t := res.Table
	var names []string
	for _, f := range t.Fields {
		names = append(names, f.Name)
	}
	fmt.Println(strings.Join(names, "\t"))
	for i := 0; i < t.NumRows(); i++ {
		var cells []string
		for _, c := range t.Cols {
			v := c.Value(i)
			if v == nil {
				cells = append(cells, "NULL")
			} else {
				cells = append(cells, fmt.Sprint(v))
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("(%d row(s))\n", t.NumRows())
}
