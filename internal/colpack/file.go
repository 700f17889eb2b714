package colpack

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/rdf"
)

// Packed snapshot file layout (snap-<seq>.snap):
//
//	8  bytes  magic "TELPACK1"
//	8  bytes  seq — last WAL sequence number covered
//	8  bytes  store version at capture
//	…         sections, each padded to 64-byte alignment
//	…         footer body:
//	            u32 section count
//	            32 bytes per section: id u32, pad, off u64, len u64,
//	                                  crc32 u32, pad
//	            u64 nRows, u64 nTerms, u64 nGeoms
//	            u32 file CRC-32 over every byte before the footer
//	4  bytes  footer body length
//	4  bytes  footer body CRC-32
//	8  bytes  magic "TELPACK1" (trailing, locates the footer)
//
// The seq field sits at the same offset as in the raw TELSNAP1 format,
// so tooling that sniffs (magic, seq) works on both. Readers locate
// the footer from the end, verify it, then verify the file CRC and
// each section CRC before trusting any offset — a bit flip anywhere
// makes Open fail, which is what lets recovery fall back to the
// previous snapshot generation.
const headerSize = 24

// Section ids. Columns and posting structures repeat per component
// (S, P, O) at consecutive ids.
const (
	secColS     = 1 // U64Col: subject ids, row order
	secColP     = 2
	secColO     = 3
	secPostOffS = 4 // U64Col, nTerms+1: byte offsets into the posting blob
	secPostOffP = 5
	secPostOffO = 6
	secPostCntS = 7 // U64Col, nTerms: posting cardinalities (Cardinality reads these)
	secPostCntP = 8
	secPostCntO = 9
	secPostS    = 10 // posting containers, term-id order
	secPostP    = 11
	secPostO    = 12
	secDict     = 13 // front-coded term blocks, id order
	secDictOff  = 14 // U64Col, nDictBlocks+1: block byte offsets
	secDictPerm = 15 // older builds only: ids in term order; verified, never read
	secGeomIDs  = 16 // U64Col: spatial literal ids, ascending
	secGeomEnvs = 17 // raw 32 bytes per geometry: envelope minx,miny,maxx,maxy f64
	secStats    = 18 // uvarint planner-statistics block
	numSections = 18 // the highest id; images this build writes lack secDictPerm
)

// PredStat is one predicate's statistics triple in the stats section.
type PredStat struct {
	ID        uint64
	Count     int
	DistinctS int
	DistinctO int
}

// StatsBlock is the precomputed planner-statistics section: the image
// builder pays the O(n) pass once, and every reader of the image just
// parses it.
type StatsBlock struct {
	Triples   int
	DistinctS int
	DistinctP int
	DistinctO int
	Geoms     int
	Pred      []PredStat
}

// SnapshotData is the encoder's input: compacted columns with their
// posting lists, the dictionary, the geometry envelopes and the
// statistics of one store version. Postings returns the sorted row list
// of id in component comp (0=S, 1=P, 2=O), nil when the id never
// appears there.
type SnapshotData struct {
	Seq      uint64
	Version  uint64
	S, P, O  []uint64
	Postings func(comp int, id uint64) []int32
	// Terms holds the dictionary in id order: Terms[i] is id i+1.
	Terms []rdf.Term
	// GeomIDs / GeomEnvs list the cached spatial literals (ascending
	// ids) and their WGS84 envelopes — enough to bulk-load the R-tree
	// without parsing a single WKT string.
	GeomIDs  []uint64
	GeomEnvs []geo.Envelope
	Stats    StatsBlock
}

// Encode serialises d as a packed snapshot image: the bytes a snapshot
// file holds, and what OpenBytes serves in place. A sizing pass measures
// every section first, so the image is allocated once, at its final
// length; the encoding pass then fills it.
func Encode(d *SnapshotData) ([]byte, error) {
	if len(d.S) != len(d.P) || len(d.S) != len(d.O) {
		return nil, fmt.Errorf("colpack: column length mismatch: s=%d p=%d o=%d", len(d.S), len(d.P), len(d.O))
	}
	if len(d.GeomIDs) != len(d.GeomEnvs) {
		return nil, fmt.Errorf("colpack: geometry id/envelope length mismatch: %d vs %d", len(d.GeomIDs), len(d.GeomEnvs))
	}
	type section struct {
		id     uint32
		size   func() int // the encoding's length; called in the sizing pass
		encode func([]byte) []byte
	}
	var secs []section
	u64 := func(id uint32, vals *[]uint64) section {
		return section{id, func() int { return u64ColLen(*vals) }, func(b []byte) []byte { return AppendU64Col(b, *vals) }}
	}
	for comp, col := range [3][]uint64{d.S, d.P, d.O} {
		secs = append(secs, u64(secColS+uint32(comp), &col))
	}
	// Posting blob + offset/count columns per component. vals holds one
	// component's blob offsets, then its posting counts: both passes fill
	// it section by section, in file order.
	nTerms := len(d.Terms)
	vals := make([]uint64, nTerms+1)
	for comp := 0; comp < 3; comp++ {
		offsets := func() int {
			vals = vals[:nTerms+1]
			off := 0
			for id := uint64(1); id <= uint64(nTerms); id++ {
				vals[id-1] = uint64(off)
				off += postingsLen(d.Postings(comp, id))
			}
			vals[nTerms] = uint64(off)
			return off
		}
		counts := func() {
			vals = vals[:nTerms]
			for id := range vals {
				vals[id] = uint64(len(d.Postings(comp, uint64(id+1))))
			}
		}
		secs = append(secs,
			section{secPostS + uint32(comp), offsets, func(b []byte) []byte {
				offsets()
				for id := uint64(1); id <= uint64(nTerms); id++ {
					b = AppendPostings(b, d.Postings(comp, id))
				}
				return b
			}},
			u64(secPostOffS+uint32(comp), &vals),
			section{secPostCntS + uint32(comp),
				func() int { counts(); return u64ColLen(vals) },
				func(b []byte) []byte { counts(); return AppendU64Col(b, vals) }})
	}
	dictOffs := dictBlockOffsets(d.Terms)
	stats := appendStats(nil, &d.Stats)
	secs = append(secs,
		section{secDict,
			func() int { return int(dictOffs[len(dictOffs)-1]) },
			func(b []byte) []byte { b, _ = AppendDictBlocks(b, d.Terms); return b }},
		u64(secDictOff, &dictOffs),
		u64(secGeomIDs, &d.GeomIDs),
		section{secGeomEnvs,
			func() int { return 32 * len(d.GeomEnvs) },
			func(b []byte) []byte {
				for _, e := range d.GeomEnvs {
					b = appendU64(b, math.Float64bits(e.MinX))
					b = appendU64(b, math.Float64bits(e.MinY))
					b = appendU64(b, math.Float64bits(e.MaxX))
					b = appendU64(b, math.Float64bits(e.MaxY))
				}
				return b
			}},
		section{secStats,
			func() int { return len(stats) },
			func(b []byte) []byte { return append(b, stats...) }})

	// Sections are padded to 64-byte alignment so block payloads start
	// cache-line (and, for large sections, page) aligned.
	align := func(n int) int { return (n + 63) &^ 63 }
	size := headerSize
	for _, sec := range secs {
		size = align(size) + sec.size()
	}
	const trailer = 4 + 4 + 8 // footer length, footer CRC, trailing magic
	footerLen := 4 + 32*len(secs) + 24 + 4
	buf := make([]byte, 0, size+footerLen+trailer)
	buf = append(buf, Magic...)
	buf = appendU64(buf, d.Seq)
	buf = appendU64(buf, d.Version)
	type secEntry struct {
		id       uint32
		off, len uint64
		crc      uint32
	}
	toc := make([]secEntry, 0, len(secs))
	for _, sec := range secs {
		buf = appendZeros(buf, align(len(buf))-len(buf))
		start := len(buf)
		buf = sec.encode(buf)
		toc = append(toc, secEntry{id: sec.id, off: uint64(start), len: uint64(len(buf) - start), crc: crc(buf[start:])})
	}
	if len(buf) != size {
		return nil, fmt.Errorf("colpack: encoded %d section bytes, sized %d", len(buf), size)
	}

	// Footer: TOC + meta + file CRC, then its own length/CRC trailer.
	fileCRC := crc(buf)
	footerStart := len(buf)
	buf = appendU32(buf, uint32(len(toc)))
	for _, e := range toc {
		buf = appendU32(buf, e.id)
		buf = appendU32(buf, 0)
		buf = appendU64(buf, e.off)
		buf = appendU64(buf, e.len)
		buf = appendU32(buf, e.crc)
		buf = appendU32(buf, 0)
	}
	buf = appendU64(buf, uint64(len(d.S)))
	buf = appendU64(buf, uint64(nTerms))
	buf = appendU64(buf, uint64(len(d.GeomIDs)))
	buf = appendU32(buf, fileCRC)
	footer := buf[footerStart:]
	buf = appendU32(buf, uint32(len(footer)))
	buf = appendU32(buf, crc(footer))
	buf = append(buf, Magic...)
	return buf, nil
}

// appendStats appends the statistics section's encoding of s.
func appendStats(b []byte, s *StatsBlock) []byte {
	b = binary.AppendUvarint(b, uint64(s.Triples))
	b = binary.AppendUvarint(b, uint64(s.DistinctS))
	b = binary.AppendUvarint(b, uint64(s.DistinctP))
	b = binary.AppendUvarint(b, uint64(s.DistinctO))
	b = binary.AppendUvarint(b, uint64(s.Geoms))
	b = binary.AppendUvarint(b, uint64(len(s.Pred)))
	for _, p := range s.Pred {
		b = binary.AppendUvarint(b, p.ID)
		b = binary.AppendUvarint(b, uint64(p.Count))
		b = binary.AppendUvarint(b, uint64(p.DistinctS))
		b = binary.AppendUvarint(b, uint64(p.DistinctO))
	}
	return b
}

// Reader is an open packed snapshot: the mapped file or in-memory image
// plus the parsed TOC. All accessors are safe for concurrent use (the
// underlying data is immutable); Close unmaps a file.
type Reader struct {
	data    []byte
	release func() error
	seq     uint64
	version uint64
	nRows   int
	nTerms  int
	nGeoms  int
	secs    [numSections + 1][]byte
	cols    [3]*U64Col
	postOff [3]*U64Col
	postCnt [3]*U64Col
	dictOff *U64Col
	geomIDs *U64Col
	stats   StatsBlock
}

// Open maps path and fully verifies it: footer CRC, whole-file CRC,
// per-section CRCs and every column's block index. Verification is a
// sequential streaming pass with no allocation or parsing — the point
// of the format is that *materialisation* is lazy; integrity is not.
func Open(path string) (*Reader, error) {
	if err := faults.Eval("colpack/open"); err != nil {
		return nil, err
	}
	data, release, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	r, err := open(data, release)
	if err != nil {
		release()
		return nil, err
	}
	return r, nil
}

// OpenBytes opens an in-memory image with the same full verification as
// Open. The Reader serves the image in place, so data must not change
// afterwards.
func OpenBytes(data []byte) (*Reader, error) {
	return open(data, func() error { return nil })
}

func open(data []byte, release func() error) (*Reader, error) {
	const trailer = 4 + 4 + 8 // footer len + footer crc + trailing magic
	if len(data) < headerSize+trailer || string(data[:8]) != Magic {
		return nil, fmt.Errorf("colpack: bad leading magic or short file (%d bytes)", len(data))
	}
	if string(data[len(data)-8:]) != Magic {
		return nil, fmt.Errorf("colpack: bad trailing magic (truncated file?)")
	}
	footerLen := int(le32(data[len(data)-16:]))
	footerCRC := le32(data[len(data)-12:])
	footerEnd := len(data) - 16
	if footerLen <= 0 || footerLen > footerEnd-headerSize {
		return nil, fmt.Errorf("colpack: implausible footer length %d", footerLen)
	}
	footer := data[footerEnd-footerLen : footerEnd]
	if crc(footer) != footerCRC {
		return nil, fmt.Errorf("colpack: footer CRC mismatch")
	}
	// An image has every section but secDictPerm; one written by an
	// older build also has that one.
	nSecs := int(le32(footer))
	if nSecs != numSections-1 && nSecs != numSections || len(footer) != 4+nSecs*32+24+4 {
		return nil, fmt.Errorf("colpack: footer shape mismatch (sections=%d len=%d)", nSecs, len(footer))
	}
	meta := footer[4+nSecs*32:]
	fileCRC := le32(meta[24:])
	body := data[:footerEnd-footerLen]
	if crc(body) != fileCRC {
		return nil, fmt.Errorf("colpack: file CRC mismatch")
	}
	r := &Reader{
		data:    data,
		release: release,
		seq:     le64(data[8:]),
		version: le64(data[16:]),
		nRows:   int(le64(meta)),
		nTerms:  int(le64(meta[8:])),
		nGeoms:  int(le64(meta[16:])),
	}
	for i := 0; i < nSecs; i++ {
		e := footer[4+i*32:]
		id := le32(e)
		off := le64(e[8:])
		length := le64(e[16:])
		secCRC := le32(e[24:])
		if id == 0 || id > numSections || off < headerSize || off+length > uint64(len(body)) {
			return nil, fmt.Errorf("colpack: TOC entry %d (section %d) outside file", i, id)
		}
		if r.secs[id] != nil {
			return nil, fmt.Errorf("colpack: TOC entry %d repeats section %d", i, id)
		}
		sec := data[off : off+length]
		if crc(sec) != secCRC {
			return nil, fmt.Errorf("colpack: section %d CRC mismatch", id)
		}
		r.secs[id] = sec
	}
	for id := uint32(1); id <= numSections; id++ {
		if r.secs[id] == nil && id != secDictPerm {
			return nil, fmt.Errorf("colpack: section %d missing", id)
		}
	}
	var err error
	openCol := func(id uint32, wantLen int) (*U64Col, error) {
		c, err := OpenU64Col(r.secs[id])
		if err != nil {
			return nil, fmt.Errorf("colpack: section %d: %w", id, err)
		}
		if c.Len() != wantLen {
			return nil, fmt.Errorf("colpack: section %d: %d values, want %d", id, c.Len(), wantLen)
		}
		return c, nil
	}
	for comp := 0; comp < 3; comp++ {
		if r.cols[comp], err = openCol(secColS+uint32(comp), r.nRows); err != nil {
			return nil, err
		}
		if r.postOff[comp], err = openCol(secPostOffS+uint32(comp), r.nTerms+1); err != nil {
			return nil, err
		}
		if r.postCnt[comp], err = openCol(secPostCntS+uint32(comp), r.nTerms); err != nil {
			return nil, err
		}
	}
	nDictBlocks := (r.nTerms + DictBlockSize - 1) / DictBlockSize
	if r.dictOff, err = openCol(secDictOff, nDictBlocks+1); err != nil {
		return nil, err
	}
	if r.geomIDs, err = openCol(secGeomIDs, r.nGeoms); err != nil {
		return nil, err
	}
	if len(r.secs[secGeomEnvs]) != r.nGeoms*32 {
		return nil, fmt.Errorf("colpack: geometry envelope section: %d bytes for %d geometries", len(r.secs[secGeomEnvs]), r.nGeoms)
	}
	if err := r.parseStats(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseStats() error {
	p := r.secs[secStats]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(p)
		if k <= 0 {
			return 0, fmt.Errorf("colpack: stats section: truncated")
		}
		p = p[k:]
		return v, nil
	}
	vals := make([]uint64, 6)
	for i := range vals {
		v, err := next()
		if err != nil {
			return err
		}
		vals[i] = v
	}
	r.stats = StatsBlock{
		Triples:   int(vals[0]),
		DistinctS: int(vals[1]),
		DistinctP: int(vals[2]),
		DistinctO: int(vals[3]),
		Geoms:     int(vals[4]),
	}
	nPred := int(vals[5])
	if nPred > r.nTerms {
		return fmt.Errorf("colpack: stats section: %d predicates for %d terms", nPred, r.nTerms)
	}
	r.stats.Pred = make([]PredStat, nPred)
	for i := range r.stats.Pred {
		var ps PredStat
		var err error
		if ps.ID, err = next(); err != nil {
			return err
		}
		var c, ds, do uint64
		if c, err = next(); err != nil {
			return err
		}
		if ds, err = next(); err != nil {
			return err
		}
		if do, err = next(); err != nil {
			return err
		}
		ps.Count, ps.DistinctS, ps.DistinctO = int(c), int(ds), int(do)
		r.stats.Pred[i] = ps
	}
	return nil
}

// Verify opens and fully checks path, returning the WAL sequence
// number the snapshot covers. It is what recovery and replica
// bootstrap run before trusting a file.
func Verify(path string) (uint64, error) {
	r, err := Open(path)
	if err != nil {
		return 0, err
	}
	seq := r.Seq()
	return seq, r.Close()
}

// Close releases the mapping. Callers must not use the Reader — or
// any slice handed out by it — afterwards.
func (r *Reader) Close() error { return r.release() }

// Seq reports the WAL sequence number the snapshot covers.
func (r *Reader) Seq() uint64 { return r.seq }

// Version reports the store version at capture.
func (r *Reader) Version() uint64 { return r.version }

// NRows reports the number of triples.
func (r *Reader) NRows() int { return r.nRows }

// NTerms reports the number of dictionary terms.
func (r *Reader) NTerms() int { return r.nTerms }

// NGeoms reports the number of cached spatial literals.
func (r *Reader) NGeoms() int { return r.nGeoms }

// SizeBytes reports the on-disk (mapped) size of the snapshot.
//
//lint:allow unreachable(bench/layers.go reports colpack.bytes_per_triple from it)
func (r *Reader) SizeBytes() int64 { return int64(len(r.data)) }

// Bytes returns the whole image — what a snapshot file of it holds.
// Callers must not modify it.
func (r *Reader) Bytes() []byte { return r.data }

// Col returns a triple column (0=S, 1=P, 2=O).
func (r *Reader) Col(comp int) *U64Col { return r.cols[comp] }

// PostOff returns a component's posting byte-offset column
// (nTerms+1 entries; id's containers span [off[id-1], off[id])).
func (r *Reader) PostOff(comp int) *U64Col { return r.postOff[comp] }

// PostCnt returns a component's posting cardinality column.
func (r *Reader) PostCnt(comp int) *U64Col { return r.postCnt[comp] }

// PostingData returns the raw container bytes spanning [start, end)
// of a component's posting blob.
func (r *Reader) PostingData(comp int, start, end uint64) []byte {
	return r.secs[secPostS+uint32(comp)][start:end]
}

// NDictBlocks reports the number of front-coded dictionary blocks.
func (r *Reader) NDictBlocks() int {
	return (r.nTerms + DictBlockSize - 1) / DictBlockSize
}

// DictBlockData returns the byte range of dictionary block b given its
// start/end offsets (from the DictOff column) and the term count the
// block holds.
func (r *Reader) DictBlockData(start, end uint64) []byte {
	return r.secs[secDict][start:end]
}

// DictOff returns the dictionary block byte-offset column.
func (r *Reader) DictOff() *U64Col { return r.dictOff }

// GeomIDs returns the spatial literal id column (ascending).
func (r *Reader) GeomIDs() *U64Col { return r.geomIDs }

// GeomEnv returns the i-th geometry's WGS84 envelope.
func (r *Reader) GeomEnv(i int) geo.Envelope {
	e := r.secs[secGeomEnvs][i*32:]
	return geo.Envelope{
		MinX: math.Float64frombits(le64(e)),
		MinY: math.Float64frombits(le64(e[8:])),
		MaxX: math.Float64frombits(le64(e[16:])),
		MaxY: math.Float64frombits(le64(e[24:])),
	}
}

// Stats returns the precomputed planner-statistics block.
func (r *Reader) Stats() *StatsBlock { return &r.stats }
