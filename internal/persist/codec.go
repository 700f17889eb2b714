package persist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// Binary term/triple codec shared by the WAL record bodies. Terms are
// serialised structurally (kind byte + three length-prefixed strings),
// not as N-Triples text, so literals with quotes, newlines or \u escapes
// round-trip byte-exactly without an escaping layer.

func appendString(b []byte, s string) []byte {
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
	b = append(b, l[:]...)
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("persist: short string header")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n) {
		return "", nil, fmt.Errorf("persist: short string body (%d < %d)", len(b), n)
	}
	return string(b[:n]), b[n:], nil
}

func appendTerm(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = appendString(b, t.Value)
	b = appendString(b, t.Datatype)
	return appendString(b, t.Lang)
}

func readTerm(b []byte) (rdf.Term, []byte, error) {
	if len(b) < 1 {
		return rdf.Term{}, nil, fmt.Errorf("persist: short term")
	}
	t := rdf.Term{Kind: rdf.TermKind(b[0])}
	b = b[1:]
	var err error
	if t.Value, b, err = readString(b); err != nil {
		return rdf.Term{}, nil, err
	}
	if t.Datatype, b, err = readString(b); err != nil {
		return rdf.Term{}, nil, err
	}
	if t.Lang, b, err = readString(b); err != nil {
		return rdf.Term{}, nil, err
	}
	return t, b, nil
}

func appendTriple(b []byte, t rdf.Triple) []byte {
	b = appendTerm(b, t.S)
	b = appendTerm(b, t.P)
	return appendTerm(b, t.O)
}

// appendTriples appends a u32 count and then the triples.
func appendTriples(b []byte, ts []rdf.Triple) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = appendTriple(b, t)
	}
	return b
}

// minTripleBytes is the smallest triple encoding: 3 × (1 kind byte + 3
// length prefixes).
const minTripleBytes = 39

// readTriples reads what appendTriples wrote. A count the rest of b
// cannot hold is corruption, and is refused before anything is
// allocated from it: a crafted record must not OOM recovery despite a
// valid CRC.
func readTriples(b []byte) ([]rdf.Triple, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("persist: short triple count")
	}
	count := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(count) > uint64(len(b)/minTripleBytes) {
		return nil, nil, fmt.Errorf("persist: implausible triple count %d for %d bytes", count, len(b))
	}
	ts := make([]rdf.Triple, count)
	for i := range ts {
		var err error
		if ts[i], b, err = readTriple(b); err != nil {
			return nil, nil, err
		}
	}
	return ts, b, nil
}

func readTriple(b []byte) (rdf.Triple, []byte, error) {
	var t rdf.Triple
	var err error
	if t.S, b, err = readTerm(b); err != nil {
		return t, nil, err
	}
	if t.P, b, err = readTerm(b); err != nil {
		return t, nil, err
	}
	if t.O, b, err = readTerm(b); err != nil {
		return t, nil, err
	}
	return t, b, nil
}
