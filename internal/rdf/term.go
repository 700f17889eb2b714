// Package rdf implements the RDF 1.1 data model used by the stRDF layer:
// IRIs, literals (plain, typed, language-tagged), blank nodes, triples, and
// (de)serialisation in N-Triples and a practical Turtle subset. A Dictionary
// provides the term<->integer encoding the Strabon column layout relies on.
package rdf

import (
	"strconv"
	"strings"
)

// TermKind tags the dynamic kind of a Term.
type TermKind int

// Term kinds.
const (
	KindIRI TermKind = iota + 1
	KindBlank
	KindLiteral
)

// Common XSD and stRDF datatype IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	// StRDFWKT is the stRDF datatype for OGC WKT spatial literals
	// (strdf:WKT in the paper's vocabulary).
	StRDFWKT = "http://strdf.di.uoa.gr/ontology#WKT"
	// StRDFGML is the stRDF datatype for GML spatial literals.
	StRDFGML = "http://strdf.di.uoa.gr/ontology#GML"
	// GeoSPARQLWKT is the OGC GeoSPARQL wktLiteral datatype, accepted as an
	// alias of strdf:WKT (the paper §1 notes GeoSPARQL convergence).
	GeoSPARQLWKT = "http://www.opengis.net/ont/geosparql#wktLiteral"
	// RDFType is rdf:type.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// RDFSSubClassOf is rdfs:subClassOf.
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	// RDFSLabel is rdfs:label.
	RDFSLabel = "http://www.w3.org/2000/01/rdf-schema#label"
)

// Term is an RDF term: IRI, blank node, or literal. The zero Term is
// invalid. Terms are comparable and usable as map keys.
type Term struct {
	Kind TermKind
	// Value is the IRI string, blank node label (without "_:"), or literal
	// lexical form.
	Value string
	// Datatype is the literal datatype IRI ("" means xsd:string / plain).
	Datatype string
	// Lang is the language tag for language-tagged literals.
	Lang string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Blank returns a blank node term with the given label (no "_:" prefix).
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// Literal returns a plain (xsd:string) literal.
func Literal(lex string) Term { return Term{Kind: KindLiteral, Value: lex} }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lex, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lex, Datatype: datatype}
}

// LangLiteral returns a language-tagged literal.
func LangLiteral(lex, lang string) Term {
	return Term{Kind: KindLiteral, Value: lex, Lang: lang}
}

// IntegerLiteral returns an xsd:integer literal.
func IntegerLiteral(v int64) Term {
	return TypedLiteral(strconv.FormatInt(v, 10), XSDInteger)
}

// DoubleLiteral returns an xsd:double literal.
func DoubleLiteral(v float64) Term {
	return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// BooleanLiteral returns an xsd:boolean literal.
func BooleanLiteral(v bool) Term {
	return TypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// WKTLiteral returns an stRDF WKT spatial literal. An optional SRID is
// conveyed in-band as "<wkt>;<srid>" per the stRDF literal syntax (e.g.
// "POINT(1 2);4326"); srid 0 means the stRDF default (WGS84).
//
//lint:allow unreachable(test helper: the rdf, endpoint, strabon, strdf and stsparql tests build spatial literals with it)
func WKTLiteral(wkt string, srid int) Term {
	if srid != 0 {
		buf := make([]byte, 0, len(wkt)+8)
		buf = append(buf, wkt...)
		buf = append(buf, ';')
		wkt = string(strconv.AppendInt(buf, int64(srid), 10))
	}
	return TypedLiteral(wkt, StRDFWKT)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsSpatial reports whether the term is a spatial (WKT/GML) literal.
func (t Term) IsSpatial() bool {
	return t.Kind == KindLiteral &&
		(t.Datatype == StRDFWKT || t.Datatype == GeoSPARQLWKT || t.Datatype == StRDFGML)
}

// IsZero reports whether the term is the invalid zero value.
func (t Term) IsZero() bool { return t.Kind == 0 }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	default:
		return "?!invalid-term"
	}
}

func escapeLiteral(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is an RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple constructs a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple in N-Triples syntax (with trailing dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}
