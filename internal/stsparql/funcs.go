package stsparql

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// Expression evaluation. All values are rdf.Term; computed numbers,
// booleans and geometries are re-encoded as typed literals. An error from
// evalExpr means "type error / unbound" — filters treat it as false per
// SPARQL semantics.

var errUnbound = fmt.Errorf("stsparql: unbound variable in expression")

// evalFilter evaluates a filter expression to its effective boolean value;
// evaluation errors yield false (SPARQL type-error semantics).
func (e *Engine) evalFilter(ex Expression, b Binding) (bool, error) {
	t, err := e.evalExpr(ex, b)
	if err != nil {
		return false, nil
	}
	return effectiveBool(t)
}

func (e *Engine) evalExpr(ex Expression, b Binding) (rdf.Term, error) {
	switch t := ex.(type) {
	case *EVar:
		v, ok := b[t.Name]
		if !ok {
			return rdf.Term{}, errUnbound
		}
		return v, nil
	case *ELit:
		return t.Term, nil
	case *EUnary:
		v, err := e.evalExpr(t.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		switch t.Op {
		case "!":
			bv, err := effectiveBool(v)
			if err != nil {
				return rdf.Term{}, err
			}
			return rdf.BooleanLiteral(!bv), nil
		case "-":
			f, ok := numericValue(v)
			if !ok {
				return rdf.Term{}, fmt.Errorf("stsparql: unary minus on non-number")
			}
			return numberLiteral(-f, v), nil
		}
		return rdf.Term{}, fmt.Errorf("stsparql: unknown unary op %q", t.Op)
	case *EBinary:
		return e.evalBinary(t, b)
	case *ECall:
		return e.evalCall(t, b)
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unsupported expression %T", ex)
}

func (e *Engine) evalBinary(t *EBinary, b Binding) (rdf.Term, error) {
	if t.Op == "&&" || t.Op == "||" {
		lv, lerr := e.evalExpr(t.Left, b)
		var lb bool
		if lerr == nil {
			lb, lerr = boolOrErr(lv)
		}
		if t.Op == "&&" {
			if lerr == nil && !lb {
				return rdf.BooleanLiteral(false), nil
			}
		} else if lerr == nil && lb {
			return rdf.BooleanLiteral(true), nil
		}
		rv, rerr := e.evalExpr(t.Right, b)
		var rb bool
		if rerr == nil {
			rb, rerr = boolOrErr(rv)
		}
		if rerr != nil {
			return rdf.Term{}, rerr
		}
		if t.Op == "&&" {
			if lerr != nil {
				return rdf.Term{}, lerr
			}
			return rdf.BooleanLiteral(lb && rb), nil
		}
		if rb {
			return rdf.BooleanLiteral(true), nil
		}
		if lerr != nil {
			return rdf.Term{}, lerr
		}
		return rdf.BooleanLiteral(lb || rb), nil
	}
	l, err := e.evalExpr(t.Left, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := e.evalExpr(t.Right, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch t.Op {
	case "+", "-", "*", "/":
		lf, lok := numericValue(l)
		rf, rok := numericValue(r)
		if !lok || !rok {
			return rdf.Term{}, fmt.Errorf("stsparql: arithmetic on non-numbers")
		}
		var v float64
		switch t.Op {
		case "+":
			v = lf + rf
		case "-":
			v = lf - rf
		case "*":
			v = lf * rf
		case "/":
			if rf == 0 {
				return rdf.Term{}, fmt.Errorf("stsparql: division by zero")
			}
			v = lf / rf
		}
		return rdf.DoubleLiteral(v), nil
	case "=", "!=", "<", "<=", ">", ">=":
		return rdf.BooleanLiteral(cmpHolds(t.Op, compareTerms(l, r))), nil
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unknown operator %q", t.Op)
}

// cmpHolds reports whether a comparison result c satisfies op.
func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// cmpKey is a term with its numeric or dateTime value parsed once. The
// comparison filters, ORDER BY and compareTerms all order terms through
// compareKeys, so a FILTER compiled with its literal's key hoisted
// answers exactly as the generic evaluator does.
type cmpKey struct {
	term   rdf.Term
	num    float64
	when   time.Time
	numOK  bool
	timeOK bool
}

func makeCmpKey(t rdf.Term) cmpKey {
	k := cmpKey{term: t}
	if f, ok := numericValue(t); ok {
		k.num, k.numOK = f, true
	} else if tm, ok := timeValue(t); ok {
		k.when, k.timeOK = tm, true
	}
	return k
}

// compareKeys orders two terms: numerics numerically, dateTimes by
// instant, otherwise by kind then lexical form.
func compareKeys(a, b *cmpKey) int {
	switch {
	case a.numOK && b.numOK:
		return compareNum(a.num, b.num)
	case a.timeOK && b.timeOK:
		return a.when.Compare(b.when)
	}
	x, y := a.term, b.term
	if x == y {
		return 0
	}
	if x.Kind != y.Kind {
		return int(x.Kind) - int(y.Kind)
	}
	if c := strings.Compare(x.Value, y.Value); c != 0 {
		return c
	}
	if c := strings.Compare(x.Datatype, y.Datatype); c != 0 {
		return c
	}
	return strings.Compare(x.Lang, y.Lang)
}

// compareNum orders two numbers; NaN compares equal to everything.
func compareNum(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compareTerms is compareKeys over terms parsed on the spot.
func compareTerms(a, b rdf.Term) int {
	ka, kb := makeCmpKey(a), makeCmpKey(b)
	return compareKeys(&ka, &kb)
}

func numericValue(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.KindLiteral {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble,
		"http://www.w3.org/2001/XMLSchema#float",
		"http://www.w3.org/2001/XMLSchema#long",
		"http://www.w3.org/2001/XMLSchema#int":
		f, err := strconv.ParseFloat(t.Value, 64)
		return f, err == nil
	}
	return 0, false
}

func timeValue(t rdf.Term) (time.Time, bool) {
	if t.Kind != rdf.KindLiteral || t.Datatype != rdf.XSDDateTime {
		return time.Time{}, false
	}
	tm, err := time.Parse(time.RFC3339, t.Value)
	return tm, err == nil
}

func numberLiteral(f float64, like rdf.Term) rdf.Term {
	if like.Datatype == rdf.XSDInteger && f == math.Trunc(f) {
		return rdf.IntegerLiteral(int64(f))
	}
	return rdf.DoubleLiteral(f)
}

func effectiveBool(t rdf.Term) (bool, error) {
	return boolOrErr(t)
}

func boolOrErr(t rdf.Term) (bool, error) {
	if t.Kind != rdf.KindLiteral {
		return false, fmt.Errorf("stsparql: non-literal in boolean context")
	}
	switch t.Datatype {
	case rdf.XSDBoolean:
		return t.Value == "true" || t.Value == "1", nil
	case "", rdf.XSDString:
		return t.Value != "", nil
	}
	if f, ok := numericValue(t); ok {
		return f != 0, nil
	}
	return false, fmt.Errorf("stsparql: no boolean value for %s", t)
}

func (e *Engine) evalCall(c *ECall, b Binding) (rdf.Term, error) {
	if c.NS == "strdf" || c.NS == "geof" {
		return e.evalSpatialCall(c, b)
	}
	switch c.Name {
	case "bound":
		if len(c.Args) != 1 {
			return rdf.Term{}, fmt.Errorf("stsparql: BOUND takes one variable")
		}
		v, ok := c.Args[0].(*EVar)
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: BOUND takes a variable")
		}
		_, bound := b[v.Name]
		return rdf.BooleanLiteral(bound), nil
	}
	args := make([]rdf.Term, len(c.Args))
	for i, a := range c.Args {
		v, err := e.evalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	switch c.Name {
	case "str":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("stsparql: STR takes one argument")
		}
		return rdf.Literal(args[0].Value), nil
	case "datatype":
		if len(args) != 1 || args[0].Kind != rdf.KindLiteral {
			return rdf.Term{}, fmt.Errorf("stsparql: DATATYPE takes one literal")
		}
		dt := args[0].Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return rdf.IRI(dt), nil
	case "lang":
		if len(args) != 1 {
			return rdf.Term{}, fmt.Errorf("stsparql: LANG takes one argument")
		}
		return rdf.Literal(args[0].Lang), nil
	case "isiri", "isuri":
		return rdf.BooleanLiteral(args[0].IsIRI()), nil
	case "isliteral":
		return rdf.BooleanLiteral(args[0].IsLiteral()), nil
	case "isblank":
		return rdf.BooleanLiteral(args[0].IsBlank()), nil
	case "regex":
		if len(args) < 2 {
			return rdf.Term{}, fmt.Errorf("stsparql: REGEX takes 2 or 3 arguments")
		}
		pattern := args[1].Value
		if len(args) == 3 && strings.Contains(args[2].Value, "i") {
			pattern = "(?i)" + pattern
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return rdf.Term{}, fmt.Errorf("stsparql: bad REGEX pattern: %w", err)
		}
		return rdf.BooleanLiteral(re.MatchString(args[0].Value)), nil
	case "strstarts":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("stsparql: STRSTARTS takes two arguments")
		}
		return rdf.BooleanLiteral(strings.HasPrefix(args[0].Value, args[1].Value)), nil
	case "contains":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("stsparql: CONTAINS takes two arguments")
		}
		return rdf.BooleanLiteral(strings.Contains(args[0].Value, args[1].Value)), nil
	case "abs":
		f, ok := numericValue(args[0])
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: ABS takes a number")
		}
		return numberLiteral(math.Abs(f), args[0]), nil
	case "floor":
		f, ok := numericValue(args[0])
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: FLOOR takes a number")
		}
		return rdf.IntegerLiteral(int64(math.Floor(f))), nil
	case "ceil":
		f, ok := numericValue(args[0])
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: CEIL takes a number")
		}
		return rdf.IntegerLiteral(int64(math.Ceil(f))), nil
	case "round":
		f, ok := numericValue(args[0])
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: ROUND takes a number")
		}
		return rdf.IntegerLiteral(int64(math.Round(f))), nil
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unknown function %q", c.Name)
}

func (e *Engine) evalSpatialCall(c *ECall, b Binding) (rdf.Term, error) {
	// Temporal (period) functions share the strdf namespace.
	switch c.Name {
	case "during", "overlapsperiod", "beforeperiod", "periodcontains":
		return e.evalTemporalCall(c, b)
	}
	args := make([]rdf.Term, len(c.Args))
	for i, a := range c.Args {
		v, err := e.evalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	geomArg := func(i int) (strdf.SpatialValue, error) {
		if i >= len(args) {
			return strdf.SpatialValue{}, fmt.Errorf("stsparql: strdf:%s missing argument %d", c.Name, i+1)
		}
		return strdf.ParseWGS84(args[i])
	}
	numArg := func(i int) (float64, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("stsparql: strdf:%s missing argument %d", c.Name, i+1)
		}
		f, ok := numericValue(args[i])
		if !ok {
			return 0, fmt.Errorf("stsparql: strdf:%s argument %d is not a number", c.Name, i+1)
		}
		return f, nil
	}
	switch c.Name {
	case "intersects", "within", "contains", "disjoint", "touches", "crosses", "overlaps", "equals", "anyinteract":
		g1, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		var ok bool
		switch c.Name {
		case "intersects", "anyinteract":
			ok = geo.Intersects(g1.Geom, g2.Geom)
		case "within":
			ok = geo.Within(g1.Geom, g2.Geom)
		case "contains":
			ok = geo.Contains(g1.Geom, g2.Geom)
		case "disjoint":
			ok = geo.Disjoint(g1.Geom, g2.Geom)
		case "touches":
			ok = geo.Touches(g1.Geom, g2.Geom)
		case "crosses":
			ok = geo.Crosses(g1.Geom, g2.Geom)
		case "overlaps":
			ok = geo.Overlaps(g1.Geom, g2.Geom)
		case "equals":
			ok = geo.Equals(g1.Geom, g2.Geom)
		}
		return rdf.BooleanLiteral(ok), nil
	case "distance":
		g1, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.DoubleLiteral(geo.GeodesicDistanceMeters(g1.Geom, g2.Geom)), nil
	case "area":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.DoubleLiteral(geo.AreaSquareMeters(g.Geom)), nil
	case "buffer":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		meters, err := numArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(geo.BufferMeters(g.Geom, meters, 8), geo.SRIDWGS84), nil
	case "envelope":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(g.Geom.Envelope().ToPolygon(), geo.SRIDWGS84), nil
	case "centroid":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(geo.Centroid(g.Geom), geo.SRIDWGS84), nil
	case "union":
		g1, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		u, err := geo.Union(g1.Geom, g2.Geom)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(u, geo.SRIDWGS84), nil
	case "intersection":
		g1, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		u, err := geo.Intersection(g1.Geom, g2.Geom)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(u, geo.SRIDWGS84), nil
	case "difference":
		g1, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		g2, err := geomArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		u, err := geo.Difference(g1.Geom, g2.Geom)
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(u, geo.SRIDWGS84), nil
	case "transform":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		sridF, err := numArg(1)
		if err != nil {
			return rdf.Term{}, err
		}
		out, err := geo.Transform(g.Geom, g.SRID, geo.SRID(int(sridF)))
		if err != nil {
			return rdf.Term{}, err
		}
		return strdf.Literal(out, geo.SRID(int(sridF))), nil
	case "isempty":
		g, err := geomArg(0)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.BooleanLiteral(g.Geom.IsEmpty()), nil
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unknown spatial function strdf:%s", c.Name)
}

func (e *Engine) evalTemporalCall(c *ECall, b Binding) (rdf.Term, error) {
	args := make([]rdf.Term, len(c.Args))
	for i, a := range c.Args {
		v, err := e.evalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	if len(args) != 2 {
		return rdf.Term{}, fmt.Errorf("stsparql: strdf:%s takes two arguments", c.Name)
	}
	switch c.Name {
	case "periodcontains":
		p, err := strdf.ParsePeriod(args[0])
		if err != nil {
			return rdf.Term{}, err
		}
		t, ok := timeValue(args[1])
		if !ok {
			return rdf.Term{}, fmt.Errorf("stsparql: strdf:periodcontains needs a dateTime second argument")
		}
		return rdf.BooleanLiteral(p.Contains(t)), nil
	}
	p1, err := strdf.ParsePeriod(args[0])
	if err != nil {
		return rdf.Term{}, err
	}
	p2, err := strdf.ParsePeriod(args[1])
	if err != nil {
		return rdf.Term{}, err
	}
	switch c.Name {
	case "during":
		return rdf.BooleanLiteral(p1.During(p2)), nil
	case "overlapsperiod":
		return rdf.BooleanLiteral(p1.Overlaps(p2)), nil
	case "beforeperiod":
		return rdf.BooleanLiteral(p1.Before(p2)), nil
	}
	return rdf.Term{}, fmt.Errorf("stsparql: unknown temporal function strdf:%s", c.Name)
}
