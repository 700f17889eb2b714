package colpack

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdf"
)

// The term dictionary is stored front-coded in id order: terms are
// canonically serialised (kind byte + uvarint-length-prefixed value,
// datatype and lang) and grouped into blocks of DictBlockSize. The
// first term of a block is stored whole; each subsequent term stores
// only the byte length it shares with its predecessor's canonical form
// plus the differing suffix — RDF terms in one dataset share long IRI
// prefixes, which is where most of the dictionary's compression comes
// from:
//
//	block = uvarint len0, len0 bytes,
//	        { uvarint shared, uvarint suffixLen, suffix bytes }…
//
// A separate U64Col of block byte offsets (nBlocks+1 entries) makes
// id→term a single block decode. Term→id needs no index in the image:
// a store loading the dictionary builds its own.

// AppendTermCanonical appends t's canonical serialisation to dst.
func AppendTermCanonical(dst []byte, t rdf.Term) []byte {
	dst = append(dst, byte(t.Kind))
	dst = binary.AppendUvarint(dst, uint64(len(t.Value)))
	dst = append(dst, t.Value...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Datatype)))
	dst = append(dst, t.Datatype...)
	dst = binary.AppendUvarint(dst, uint64(len(t.Lang)))
	dst = append(dst, t.Lang...)
	return dst
}

// parseTermCanonical decodes one canonical term.
func parseTermCanonical(p []byte) (rdf.Term, error) {
	if len(p) < 1 {
		return rdf.Term{}, fmt.Errorf("colpack: dict: empty term encoding")
	}
	t := rdf.Term{Kind: rdf.TermKind(p[0])}
	p = p[1:]
	next := func() (string, error) {
		n, k := binary.Uvarint(p)
		if k <= 0 || n > uint64(len(p)-k) {
			return "", fmt.Errorf("colpack: dict: corrupt term field length")
		}
		s := string(p[k : k+int(n)])
		p = p[k+int(n):]
		return s, nil
	}
	var err error
	if t.Value, err = next(); err != nil {
		return t, err
	}
	if t.Datatype, err = next(); err != nil {
		return t, err
	}
	t.Lang, err = next()
	return t, err
}

// AppendDictBlocks front-codes terms (id i+1 = terms[i]) into dst and
// returns the grown dst plus the block start offsets (len = nBlocks+1,
// relative to the start of the appended region).
func AppendDictBlocks(dst []byte, terms []rdf.Term) ([]byte, []uint64) {
	base := len(dst)
	offs := make([]uint64, 0, (len(terms)+DictBlockSize-1)/DictBlockSize+1)
	frontCode(terms, func(shared int, canon []byte) {
		if shared < 0 {
			offs = append(offs, uint64(len(dst)-base))
			dst = binary.AppendUvarint(dst, uint64(len(canon)))
			dst = append(dst, canon...)
			return
		}
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binary.AppendUvarint(dst, uint64(len(canon)-shared))
		dst = append(dst, canon[shared:]...)
	})
	offs = append(offs, uint64(len(dst)-base))
	return dst, offs
}

// dictBlockOffsets returns the block start offsets AppendDictBlocks
// would return for terms, without encoding them: the last one is the
// encoding's length.
func dictBlockOffsets(terms []rdf.Term) []uint64 {
	offs := make([]uint64, 0, (len(terms)+DictBlockSize-1)/DictBlockSize+1)
	var lens [2 * binary.MaxVarintLen64]byte
	size := 0
	frontCode(terms, func(shared int, canon []byte) {
		if shared < 0 {
			offs = append(offs, uint64(size))
			size += len(binary.AppendUvarint(lens[:0], uint64(len(canon)))) + len(canon)
			return
		}
		size += len(binary.AppendUvarint(binary.AppendUvarint(lens[:0], uint64(shared)), uint64(len(canon)-shared))) + len(canon) - shared
	})
	return append(offs, uint64(size))
}

// frontCode calls emit with every term's canonical form, in order, and
// the length it shares with its predecessor's — or -1 for the first term
// of a block, which is stored whole. canon is reused between calls.
func frontCode(terms []rdf.Term, emit func(shared int, canon []byte)) {
	var prev, cur []byte
	for i, t := range terms {
		cur = AppendTermCanonical(cur[:0], t)
		shared := -1
		if i%DictBlockSize != 0 {
			shared = 0
			for shared < len(prev) && shared < len(cur) && prev[shared] == cur[shared] {
				shared++
			}
		}
		emit(shared, cur)
		prev, cur = cur, prev
	}
}

// DecodeDictBlock decodes the count terms of one front-coded block
// (data = that block's byte range) into out, grown as needed.
func DecodeDictBlock(data []byte, count int, out []rdf.Term) ([]rdf.Term, error) {
	if cap(out) < count {
		out = make([]rdf.Term, 0, count)
	}
	out = out[:0]
	err := WalkDictBlock(data, count, func(canon []byte) error {
		t, err := parseTermCanonical(canon)
		out = append(out, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WalkDictBlock calls fn with the canonical form (AppendTermCanonical's)
// of each of the count terms of one front-coded block, in id order,
// without decoding them into terms. canon is reused between calls; an
// error from fn stops the walk and is returned.
func WalkDictBlock(data []byte, count int, fn func(canon []byte) error) error {
	var canon []byte
	for i := 0; i < count; i++ {
		if i == 0 {
			n, k := binary.Uvarint(data)
			if k <= 0 || n > uint64(len(data)-k) {
				return fmt.Errorf("colpack: dict: corrupt block head length")
			}
			canon = append(canon[:0], data[k:k+int(n)]...)
			data = data[k+int(n):]
		} else {
			shared, k1 := binary.Uvarint(data)
			if k1 <= 0 {
				return fmt.Errorf("colpack: dict: corrupt shared-prefix length")
			}
			suffix, k2 := binary.Uvarint(data[k1:])
			if k2 <= 0 || suffix > uint64(len(data)-k1-k2) {
				return fmt.Errorf("colpack: dict: corrupt suffix length")
			}
			if shared > uint64(len(canon)) {
				return fmt.Errorf("colpack: dict: shared prefix %d exceeds predecessor length %d", shared, len(canon))
			}
			canon = append(canon[:shared], data[k1+k2:k1+k2+int(suffix)]...)
			data = data[k1+k2+int(suffix):]
		}
		if err := fn(canon); err != nil {
			return err
		}
	}
	return nil
}
