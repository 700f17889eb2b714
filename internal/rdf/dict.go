package rdf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Dictionary maps RDF terms to dense uint64 identifiers and back. Strabon
// stores triples as three integer columns over this dictionary — the same
// layout MonetDB uses underneath the paper's Strabon deployment. ID 0 is
// reserved (never assigned) so stores can use it as "unbound".
type Dictionary struct {
	mu      sync.RWMutex
	byTerm  map[Term]uint64
	byID    []Term // byID[i] holds the term for id i+1
	spatial map[uint64]struct{}
	// bytes tracks the string bytes held across byID for
	// EstimateBytes; maintained by Encode.
	bytes int64
}

// NewDictionary returns an empty dictionary. The term map is presized
// for a small catalogue so bulk encoding does not rehash from zero.
func NewDictionary() *Dictionary {
	return &Dictionary{
		byTerm:  make(map[Term]uint64, 512),
		spatial: make(map[uint64]struct{}, 64),
	}
}

// Encode returns the ID for t, assigning a fresh one if necessary.
func (d *Dictionary) Encode(t Term) uint64 {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.byTerm[t]; ok {
		return id
	}
	d.byID = append(d.byID, t)
	id = uint64(len(d.byID))
	d.byTerm[t] = id
	d.bytes += int64(len(t.Value) + len(t.Datatype) + len(t.Lang))
	if t.IsSpatial() {
		d.spatial[id] = struct{}{}
	}
	return id
}

// Lookup returns the ID for t without assigning; ok is false when t has
// no ID yet.
func (d *Dictionary) Lookup(t Term) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byTerm[t]
	return id, ok
}

// Decode returns the term for id; ok is false for unknown ids (including 0).
func (d *Dictionary) Decode(id uint64) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || id > uint64(len(d.byID)) {
		return Term{}, false
	}
	return d.byID[id-1], true
}

// DecodeAll decodes ids[i] into out[i] under a single lock acquisition —
// the batch counterpart of Decode for vectorized readers. Unknown ids
// (including 0) decode to the zero Term. out must have len(ids) capacity;
// the filled prefix is returned.
func (d *Dictionary) DecodeAll(ids []uint64, out []Term) []Term {
	out = out[:len(ids)]
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := uint64(len(d.byID))
	for i, id := range ids {
		if id == 0 || id > n {
			out[i] = Term{}
			continue
		}
		out[i] = d.byID[id-1]
	}
	return out
}

// Terms returns every term assigned so far, in id order: Terms()[i] is
// id i+1. The slice is shared, not copied, and must not be modified; it
// stays valid because later Encodes only append past its end.
func (d *Dictionary) Terms() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byID[:len(d.byID):len(d.byID)]
}

// IsSpatialID reports whether id encodes a spatial literal.
func (d *Dictionary) IsSpatialID(id uint64) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.spatial[id]
	return ok
}

// Len reports the number of assigned IDs.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// EstimateBytes approximates the heap bytes the dictionary holds: the
// term string bytes plus fixed per-entry overhead for the two maps'
// entries and the Term structs themselves (counted twice — byTerm keys
// and byID values share strings but not headers).
func (d *Dictionary) EstimateBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	const perEntry = 2*termHeaderBytes + mapEntryOverhead
	return d.bytes + int64(len(d.byID))*perEntry
}

const (
	// termHeaderBytes is the size of a Term value: three string headers
	// (16 bytes each) plus the kind byte, padded.
	termHeaderBytes = 56
	// mapEntryOverhead is a rough per-entry charge for byTerm's bucket
	// storage (key already counted) and the uint64 value.
	mapEntryOverhead = 16
)

// SpatialIDs returns all ids of spatial literals, in unspecified order.
func (d *Dictionary) SpatialIDs() []uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]uint64, 0, len(d.spatial))
	for id := range d.spatial {
		out = append(out, id)
	}
	return out
}

// dictMagic identifies the dictionary binary snapshot format.
const dictMagic = "TELDICT1"

// WriteTo serialises the dictionary (terms in ID order) in a compact
// length-prefixed binary format.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := write([]byte(dictMagic)); err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(d.byID)))
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	writeStr := func(s string) error {
		var l [4]byte
		binary.LittleEndian.PutUint32(l[:], uint32(len(s)))
		if err := write(l[:]); err != nil {
			return err
		}
		return write([]byte(s))
	}
	for _, t := range d.byID {
		if err := write([]byte{byte(t.Kind)}); err != nil {
			return n, err
		}
		if err := writeStr(t.Value); err != nil {
			return n, err
		}
		if err := writeStr(t.Datatype); err != nil {
			return n, err
		}
		if err := writeStr(t.Lang); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDictionary deserialises a dictionary snapshot written by WriteTo.
func ReadDictionary(r io.Reader) (*Dictionary, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(dictMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("rdf: reading dictionary magic: %w", err)
	}
	if string(magic) != dictMagic {
		return nil, fmt.Errorf("rdf: bad dictionary magic %q", magic)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	d := NewDictionary()
	readStr := func() (string, error) {
		var l [4]byte
		if _, err := io.ReadFull(br, l[:]); err != nil {
			return "", err
		}
		n := binary.LittleEndian.Uint32(l[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	for i := uint64(0); i < count; i++ {
		var kind [1]byte
		if _, err := io.ReadFull(br, kind[:]); err != nil {
			return nil, err
		}
		value, err := readStr()
		if err != nil {
			return nil, err
		}
		datatype, err := readStr()
		if err != nil {
			return nil, err
		}
		lang, err := readStr()
		if err != nil {
			return nil, err
		}
		t := Term{Kind: TermKind(kind[0]), Value: value, Datatype: datatype, Lang: lang}
		d.Encode(t)
	}
	return d, nil
}
