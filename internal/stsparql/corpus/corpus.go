// Package corpus generates the randomized equivalence-test workload: a
// seeded stRDF dataset and a stream of random stSPARQL read queries
// (BGP + FILTER + OPTIONAL + UNION + BIND + spatial predicates) over
// it. It exists so every equivalence suite in the repo — legacy vs.
// vectorized executor, serial vs. morsel-parallel, and primary vs.
// replica — stresses the engine with the same query shapes instead of
// each test inventing a weaker generator.
//
// The package depends only on internal/rdf, so it is importable from
// anywhere (engine tests, replication tests, benchmark drivers) without
// cycles.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rdf"
)

// NS is the namespace every generated term lives under.
const NS = "http://ex/"

// Seed is the canonical corpus seed shared by the equivalence suites:
// a failure in one suite reproduces in the others on the same queries.
const Seed = 20260729

// Triples generates the seeded dataset: 20 subjects with classes,
// numeric and string properties, WKT point geometries and cross-links,
// drawn from rng (deterministic for a fixed seed).
func Triples(rng *rand.Rand) []rdf.Triple {
	var triples []rdf.Triple
	subjects := make([]rdf.Term, 20)
	for i := range subjects {
		subjects[i] = rdf.IRI(fmt.Sprintf("%ss%d", NS, i))
	}
	classes := []rdf.Term{
		rdf.IRI(NS + "Hotspot"),
		rdf.IRI(NS + "Town"),
		rdf.IRI(NS + "Forest"),
	}
	preds := make([]rdf.Term, 4)
	for i := range preds {
		preds[i] = rdf.IRI(fmt.Sprintf("%sp%d", NS, i))
	}
	for i, s := range subjects {
		triples = append(triples, rdf.NewTriple(s, rdf.IRI(rdf.RDFType), classes[i%len(classes)]))
		// Numeric property on most subjects.
		if rng.Intn(4) != 0 {
			triples = append(triples, rdf.NewTriple(s, preds[0], rdf.IntegerLiteral(int64(rng.Intn(10)))))
		}
		// String property.
		if rng.Intn(3) != 0 {
			triples = append(triples, rdf.NewTriple(s, preds[1], rdf.Literal(fmt.Sprintf("name-%d", rng.Intn(6)))))
		}
		// Geometry: points scattered over a small window.
		if rng.Intn(3) != 0 {
			x := 23.0 + rng.Float64()*2
			y := 37.0 + rng.Float64()*2
			wkt := fmt.Sprintf("POINT (%.4f %.4f)", x, y)
			triples = append(triples, rdf.NewTriple(s, rdf.IRI(NS+"geom"),
				rdf.TypedLiteral(wkt, "http://strdf.di.uoa.gr/ontology#WKT")))
		}
		// Cross-links between subjects.
		for k := 0; k < rng.Intn(3); k++ {
			triples = append(triples, rdf.NewTriple(s, preds[2], subjects[rng.Intn(len(subjects))]))
		}
		// Second numeric property, sparse.
		if rng.Intn(5) == 0 {
			triples = append(triples, rdf.NewTriple(s, preds[3], rdf.DoubleLiteral(rng.Float64()*100)))
		}
	}
	return triples
}

// Delta draws a seeded batch of writes against a store holding base:
// adds (a second draw of the dataset — the same subjects and vocabulary
// with fresh values, links and geometries, some already present) and
// removes (an eighth of base, sampled). The equivalence suites apply it
// after the last full build, so that their queries run against a read
// view with a non-empty delta.
func Delta(rng *rand.Rand, base []rdf.Triple) (adds, removes []rdf.Triple) {
	adds = Triples(rng)
	for i := 0; i < len(base)/8; i++ {
		removes = append(removes, base[rng.Intn(len(base))])
	}
	return adds, removes
}

// randPatTerm yields a pattern position: a variable or a constant.
func randPatTerm(rng *rand.Rand, vars []string, consts []string) string {
	if rng.Intn(2) == 0 {
		return "?" + vars[rng.Intn(len(vars))]
	}
	return consts[rng.Intn(len(consts))]
}

// RandQuery draws one random read query over the Triples dataset.
func RandQuery(rng *rand.Rand) string {
	vars := []string{"a", "b", "c", "d"}
	subjConsts := []string{"<http://ex/s1>", "<http://ex/s5>", "<http://ex/s12>"}
	predConsts := []string{"a", "<http://ex/p0>", "<http://ex/p1>", "<http://ex/p2>", "<http://ex/geom>"}
	objConsts := []string{
		"<http://ex/Hotspot>", "<http://ex/Town>", "<http://ex/s3>",
		`"name-2"`, "4",
	}
	pattern := func() string {
		s := randPatTerm(rng, vars, subjConsts)
		p := predConsts[rng.Intn(len(predConsts))]
		if rng.Intn(5) == 0 {
			p = "?" + vars[rng.Intn(len(vars))]
		}
		o := randPatTerm(rng, vars, objConsts)
		return fmt.Sprintf("%s %s %s .", s, p, o)
	}
	var body []string
	nPats := 1 + rng.Intn(3)
	for i := 0; i < nPats; i++ {
		body = append(body, pattern())
	}
	// FILTER variants.
	switch rng.Intn(5) {
	case 0:
		body = append(body, fmt.Sprintf("FILTER(?%s > %d)", vars[rng.Intn(2)], rng.Intn(8)))
	case 1:
		body = append(body, fmt.Sprintf("FILTER(REGEX(?%s, \"name\"))", vars[rng.Intn(2)]))
	case 2:
		body = append(body, fmt.Sprintf(
			`FILTER(strdf:intersects(?%s, "POLYGON ((23 37, 24.5 37, 24.5 38.5, 23 38.5, 23 37))"^^strdf:WKT))`,
			vars[rng.Intn(2)]))
	case 3:
		body = append(body, fmt.Sprintf(
			`FILTER(strdf:distance(?%s, "POINT (23.5 37.5)"^^strdf:WKT) < %d)`,
			vars[rng.Intn(2)], 20000+rng.Intn(100000)))
	}
	// BIND sometimes.
	if rng.Intn(4) == 0 {
		body = append(body, fmt.Sprintf("BIND(?%s + 1 AS ?%s)", vars[rng.Intn(2)], vars[3]))
	}
	// OPTIONAL sometimes.
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("OPTIONAL { %s }", pattern()))
	}
	// UNION sometimes.
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("{ %s } UNION { %s }", pattern(), pattern()))
	}
	sel := "*"
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		var ps []string
		for i := 0; i < n; i++ {
			ps = append(ps, "?"+vars[i])
		}
		sel = strings.Join(ps, " ")
	}
	distinct := ""
	if rng.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	suffix := ""
	if rng.Intn(3) == 0 {
		suffix = fmt.Sprintf(" ORDER BY ?%s", vars[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			suffix += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(10))
		}
	}
	return fmt.Sprintf(`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT %s%s WHERE { %s }%s`, distinct, sel, strings.Join(body, "\n"), suffix)
}

// InsertDataStatement renders triples as an INSERT DATA update — the
// write-side workload for replication tests, shipped through the
// endpoint so it exercises the full journalling path.
func InsertDataStatement(triples []rdf.Triple) string {
	var sb strings.Builder
	sb.WriteString("INSERT DATA {\n")
	for _, t := range triples {
		sb.WriteString(t.S.String())
		sb.WriteByte(' ')
		sb.WriteString(t.P.String())
		sb.WriteByte(' ')
		sb.WriteString(t.O.String())
		sb.WriteString(" .\n")
	}
	sb.WriteString("}")
	return sb.String()
}
