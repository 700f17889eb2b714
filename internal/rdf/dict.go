package rdf

import "sync"

// Dictionary maps RDF terms to dense uint64 identifiers and back. Strabon
// stores triples as three integer columns over a dictionary — the same
// layout MonetDB uses underneath the paper's Strabon deployment; this one
// holds the terms a store has been written since its base image, whose
// own dictionary is front-coded in the image. ID 0 is reserved (never
// assigned) so stores can use it as "unbound".
type Dictionary struct {
	mu     sync.RWMutex
	byTerm map[Term]uint64
	byID   []Term // byID[i] holds the term for id i+1
	// bytes tracks the string bytes held across byID for
	// EstimateBytes; maintained by Encode.
	bytes int64
}

// NewDictionary returns an empty dictionary. The term map is presized
// for a small catalogue so bulk encoding does not rehash from zero.
func NewDictionary() *Dictionary {
	return &Dictionary{byTerm: make(map[Term]uint64, 512)}
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

// Terms returns every term assigned so far, in id order: Terms()[i] is
// id i+1. The slice is shared, not copied, and must not be modified; it
// stays valid because later Encodes only append past its end.
func (d *Dictionary) Terms() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byID[:len(d.byID):len(d.byID)]
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
