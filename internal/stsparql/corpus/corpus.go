// Package corpus generates the randomized equivalence-test workload: a
// seeded stRDF dataset and a stream of random stSPARQL read queries
// (BGP + FILTER + OPTIONAL + UNION + BIND + spatial predicates, `&&`
// conjunctions, and spatial joins between two geometry variables, under
// random select tails: expression projections, DISTINCT, ORDER BY, LIMIT
// and OFFSET), and aggregate queries drawn on top of them, over it. It
// exists so every equivalence suite in the repo — legacy vs. vectorized
// executor, serial vs. morsel-parallel, and primary vs.
// replica — stresses the engine with the same query shapes instead of
// each test inventing a weaker generator.
//
// The package depends only on internal/rdf, so it is importable from
// anywhere (engine tests, replication tests, benchmark drivers) without
// cycles.
//
//lint:allow unreachable(test support: the stsparql and replication equivalence suites generate their workload with it)
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

// Subjects is the canonical dataset's subject count.
const Subjects = 20

// Triples generates the seeded dataset: n subjects with classes,
// numeric and string properties, WKT point and square geometries and
// cross-links, drawn from rng (deterministic for a fixed seed).
func Triples(rng *rand.Rand, n int) []rdf.Triple {
	var triples []rdf.Triple
	subjects := make([]rdf.Term, n)
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
		// Geometry: points scattered over a small window, a third of
		// them square footprints around the point, so that topological
		// predicates between two variables have areas to relate.
		if rng.Intn(3) != 0 {
			x := 23.0 + rng.Float64()*2
			y := 37.0 + rng.Float64()*2
			wkt := fmt.Sprintf("POINT (%.4f %.4f)", x, y)
			if rng.Intn(3) == 0 {
				h := 0.05 + rng.Float64()*0.4
				wkt = fmt.Sprintf("POLYGON ((%.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f, %.4f %.4f))",
					x-h, y-h, x+h, y-h, x+h, y+h, x-h, y+h, x-h, y-h)
			}
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
// adds (a second draw of the canonical dataset — the same subjects and vocabulary
// with fresh values, links and geometries, some already present) and
// removes (an eighth of base, sampled). The equivalence suites apply it
// after the last full build, so that their queries run against a read
// view with a non-empty delta.
func Delta(rng *rand.Rand, base []rdf.Triple) (adds, removes []rdf.Triple) {
	adds = Triples(rng, Subjects)
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

var (
	queryVars  = []string{"a", "b", "c", "d"}
	subjConsts = []string{"<http://ex/s1>", "<http://ex/s5>", "<http://ex/s12>"}
	predConsts = []string{"a", "<http://ex/p0>", "<http://ex/p1>", "<http://ex/p2>", "<http://ex/geom>"}
	objConsts  = []string{
		"<http://ex/Hotspot>", "<http://ex/Town>", "<http://ex/s3>",
		`"name-2"`, "4",
	}
	classConsts = []string{"<http://ex/Hotspot>", "<http://ex/Town>", "<http://ex/Forest>"}
	// topoPreds are the topological predicates that imply intersecting
	// envelopes, plus disjoint, which does not.
	topoPreds = []string{"intersects", "within", "contains", "equals", "touches", "overlaps", "crosses", "disjoint"}
)

const (
	window = `"POLYGON ((23 37, 24.5 37, 24.5 38.5, 23 38.5, 23 37))"^^strdf:WKT`
	centre = `"POINT (23.5 37.5)"^^strdf:WKT`
)

func randPattern(rng *rand.Rand) string {
	s := randPatTerm(rng, queryVars, subjConsts)
	p := predConsts[rng.Intn(len(predConsts))]
	if rng.Intn(5) == 0 {
		p = "?" + queryVars[rng.Intn(len(queryVars))]
	}
	o := randPatTerm(rng, queryVars, objConsts)
	return fmt.Sprintf("%s %s %s .", s, p, o)
}

// spatialJoin draws the flagship join shape: two pattern groups that
// share no variable — ?c with its geometry ?a, ?d with its geometry ?b,
// each optionally typed — linked only by a FILTER relating ?a and ?b,
// by distance or by a topological predicate, sometimes conjoined with
// a comparison.
func spatialJoin(rng *rand.Rand) []string {
	side := func(s, g string) []string {
		pats := []string{fmt.Sprintf("?%s <http://ex/geom> ?%s .", s, g)}
		if rng.Intn(2) == 0 {
			pats = append(pats, fmt.Sprintf("?%s a %s .", s, classConsts[rng.Intn(len(classConsts))]))
		}
		rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		return pats
	}
	body := append(side("c", "a"), side("d", "b")...)
	x, y := "?a", "?b"
	if rng.Intn(2) == 0 {
		x, y = y, x
	}
	var f string
	switch rng.Intn(4) {
	case 0:
		f = fmt.Sprintf("strdf:distance(%s, %s) < %d", x, y, 10000+rng.Intn(60000))
	case 1:
		f = fmt.Sprintf("%d >= strdf:distance(%s, %s)", 10000+rng.Intn(60000), x, y)
	default:
		f = fmt.Sprintf("strdf:%s(%s, %s)", topoPreds[rng.Intn(len(topoPreds))], x, y)
	}
	if rng.Intn(3) == 0 {
		f = fmt.Sprintf("?c != ?d && %s", f)
	}
	return append(body, "FILTER("+f+")")
}

// SpatialJoinQuery draws a query whose only spatial filter relates two
// variables: the spatial join shape, at most one random pattern and at
// most one comparison filter. With no constant geometry in it, spatial pushdown
// has no hint to plan with, so the query must return the same rows in
// the same order with pushdown on and off.
func SpatialJoinQuery(rng *rand.Rand) string {
	var body []string
	if rng.Intn(2) == 0 {
		body = append(body, randPattern(rng))
	}
	body = append(body, spatialJoin(rng)...)
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("FILTER(?%s > %d)", queryVars[rng.Intn(len(queryVars))], rng.Intn(8)))
	}
	return selectQuery(rng, body)
}

// Queries draws n random read queries over the Triples dataset, then
// n/5 aggregate queries on top of them, so that the aggregates add
// coverage without taking the place of a random graph pattern.
func Queries(rng *rand.Rand, n int) []string {
	qs := make([]string, 0, n+n/5)
	for i := 0; i < n; i++ {
		qs = append(qs, selectQuery(rng, randBody(rng)))
	}
	for i := 0; i < n/5; i++ {
		qs = append(qs, aggregateQuery(rng))
	}
	return qs
}

// randBody draws a random WHERE body: patterns, sometimes a spatial
// join, a FILTER, BIND, OPTIONAL and UNION.
func randBody(rng *rand.Rand) []string {
	vars := queryVars
	var body []string
	nPats := 1 + rng.Intn(3)
	if rng.Intn(4) == 0 {
		// Keep the join's cross product small enough for the oracle.
		nPats = rng.Intn(2)
		body = append(body, spatialJoin(rng)...)
	}
	for i := 0; i < nPats; i++ {
		body = append(body, randPattern(rng))
	}
	// FILTER variants.
	switch rng.Intn(7) {
	case 0:
		body = append(body, fmt.Sprintf("FILTER(?%s > %d)", vars[rng.Intn(2)], rng.Intn(8)))
	case 1:
		body = append(body, fmt.Sprintf("FILTER(REGEX(?%s, \"name\"))", vars[rng.Intn(2)]))
	case 2:
		body = append(body, fmt.Sprintf(`FILTER(strdf:intersects(?%s, %s))`, vars[rng.Intn(2)], window))
	case 3:
		body = append(body, fmt.Sprintf(
			`FILTER(strdf:distance(?%s, %s) < %d)`,
			vars[rng.Intn(2)], centre, 20000+rng.Intn(100000)))
	case 4:
		// A comparison conjoined with a spatial predicate; the compared
		// variable may be one that BIND, OPTIONAL or UNION binds.
		body = append(body, fmt.Sprintf(`FILTER(?%s > %d && strdf:intersects(?%s, %s))`,
			vars[rng.Intn(len(vars))], rng.Intn(8), vars[rng.Intn(2)], window))
	case 5:
		body = append(body, fmt.Sprintf(`FILTER(strdf:distance(?%s, %s) < %d && ?%s != <http://ex/s3>)`,
			vars[rng.Intn(2)], centre, 20000+rng.Intn(100000), vars[rng.Intn(len(vars))]))
	}
	// BIND sometimes.
	if rng.Intn(4) == 0 {
		body = append(body, fmt.Sprintf("BIND(?%s + 1 AS ?%s)", vars[rng.Intn(2)], vars[3]))
	}
	// OPTIONAL sometimes.
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("OPTIONAL { %s }", randPattern(rng)))
	}
	// UNION sometimes.
	if rng.Intn(3) == 0 {
		body = append(body, fmt.Sprintf("{ %s } UNION { %s }", randPattern(rng), randPattern(rng)))
	}
	return body
}

// selectQuery wraps a WHERE body in a random select tail: a projection,
// sometimes with an expression, DISTINCT, and ORDER BY over one or two
// keys — any of the query's variables, projected or not, OPTIONAL-bound
// or not, ascending or descending — with LIMIT and OFFSET.
func selectQuery(rng *rand.Rand, body []string) string {
	sel := "*"
	keys := queryVars
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		var ps []string
		for i := 0; i < n; i++ {
			ps = append(ps, "?"+queryVars[i])
		}
		if rng.Intn(3) == 0 {
			ex := []string{"STR(?%s)", "?%s + 1"}[rng.Intn(2)]
			ps = append(ps, "("+fmt.Sprintf(ex, queryVars[rng.Intn(2)])+" AS ?e)")
			keys = append(keys[:len(keys):len(keys)], "e")
		}
		sel = strings.Join(ps, " ")
	}
	distinct := ""
	if rng.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	suffix := ""
	if rng.Intn(3) == 0 {
		suffix = orderBy(rng, keys)
	}
	return fmt.Sprintf(`PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
		SELECT %s%s WHERE { %s }%s`, distinct, sel, strings.Join(body, "\n"), suffix)
}

// aggregateQuery draws one aggregate query over the Triples dataset:
// COUNT(*), COUNT, SUM, AVG, MIN and MAX, most often grouped by one
// variable; SUM, AVG, MIN and MAX read p0's integers as ?n. Half the
// time the rows are a random body's, with ?n bound by an OPTIONAL where
// ?a has a p0; since a random body seldom keeps a row, the other half
// counts the subjects that have a p0, their class as ?b and OPTIONAL
// names and links as ?c and ?d, so that groups hold several values and
// unbound keys.
func aggregateQuery(rng *rand.Rand) string {
	var body []string
	if rng.Intn(2) == 0 {
		body = append(randBody(rng), "OPTIONAL { ?a <http://ex/p0> ?n }")
	} else {
		body = []string{"?a <http://ex/p0> ?n . ?a a ?b .",
			"OPTIONAL { ?a <http://ex/p1> ?c }", "OPTIONAL { ?a <http://ex/p2> ?d }"}
	}
	var ps, keys []string
	group := ""
	if rng.Intn(3) != 0 {
		g := queryVars[rng.Intn(len(queryVars))]
		group = " GROUP BY ?" + g
		ps, keys = append(ps, "?"+g), append(keys, g)
	}
	aggs := []string{"COUNT(*)", "COUNT(?" + queryVars[rng.Intn(len(queryVars))] + ")", "SUM(?n)", "AVG(?n)", "MIN(?n)", "MAX(?n)"}
	for i, k := range rng.Perm(len(aggs))[:1+rng.Intn(3)] {
		name := fmt.Sprintf("x%d", i)
		ps, keys = append(ps, fmt.Sprintf("(%s AS ?%s)", aggs[k], name)), append(keys, name)
	}
	suffix := group
	if rng.Intn(2) == 0 {
		suffix += orderBy(rng, keys)
	}
	return fmt.Sprintf(`SELECT %s WHERE { %s }%s`, strings.Join(ps, " "), strings.Join(body, "\n"), suffix)
}

// orderBy draws an ORDER BY over one or two of keys, each ascending or
// descending, then sometimes a LIMIT and an OFFSET.
func orderBy(rng *rand.Rand, keys []string) string {
	out := " ORDER BY"
	for i := 0; i < 1+rng.Intn(2); i++ {
		k := "?" + keys[rng.Intn(len(keys))]
		if rng.Intn(3) == 0 {
			k = "DESC(" + k + ")"
		}
		out += " " + k
	}
	if rng.Intn(2) == 0 {
		out += fmt.Sprintf(" LIMIT %d", 1+rng.Intn(10))
	}
	if rng.Intn(4) == 0 {
		out += fmt.Sprintf(" OFFSET %d", rng.Intn(5))
	}
	return out
}
