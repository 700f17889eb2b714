package strabon

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colpack"
	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/strdf"
)

// packView is the one base format: a TELPACK1 image — the mapped file a
// store was restored from, or one a fold built in memory — answering
// MatchRows/Cardinality/DecodeAll in place (colpack.Reader), decoding
// blocks on demand instead of materialising columns, posting lists and
// the dictionary. Writes never copy it: the store layers its delta on
// top, and a fold streams it into the next image. Every structure here
// is either immutable (the image) or a concurrency-safe cache — morsel
// workers and the write path hit these paths in parallel.
//
// Decoded blocks are cached forever (per base): memory grows with the
// touched working set, not the dataset, and a mapped file's raw bytes
// stay page-cache-backed either way.
type packView struct {
	r *colpack.Reader
	// file marks the image a store was restored from (RestorePacked),
	// as opposed to one a fold built.
	file bool

	// cols caches decoded S/P/O value blocks; postings caches fully
	// decoded per-term posting lists (id -> []int32). The posting index
	// and dictionary offset columns are read a value at a time (At).
	cols       [3]cachedCol
	postings   [3]sync.Map
	dictBlocks []atomic.Pointer[[]rdf.Term]
	// ix looks terms up (see termIndex): set by the fold that built the
	// image, or built by the first lookup.
	ixOnce sync.Once
	ix     *termIndex

	// geomOnce builds the id->section-index map and the R-tree on
	// first spatial use, so boots that never run a spatial query pay
	// nothing.
	geomOnce sync.Once
	geomIdx  map[uint64]int
	spatial  *rtree.Tree
	// geomCache holds parsed WGS84 geometries: those of a mapped file
	// parsed lazily, those of a fold seeded with the ones at hand.
	geomMu    sync.RWMutex
	geomCache map[uint64]strdf.SpatialValue

	stats *SnapshotStats

	// cachedBytes approximates the heap bytes pinned by decode caches —
	// the "resident" side of /stats' compression ratio.
	cachedBytes atomic.Int64
}

// cachedCol wraps a packed column with a lock-free decoded-block
// cache. Concurrent first touches may decode the same block twice;
// the loser's buffer is dropped — decoding is idempotent.
type cachedCol struct {
	col    *colpack.U64Col
	blocks []atomic.Pointer[[]uint64]
	bytes  *atomic.Int64
}

func newCachedCol(col *colpack.U64Col, bytes *atomic.Int64) cachedCol {
	return cachedCol{col: col, blocks: make([]atomic.Pointer[[]uint64], col.NumBlocks()), bytes: bytes}
}

func (c *cachedCol) block(b int) []uint64 {
	if p := c.blocks[b].Load(); p != nil {
		return *p
	}
	buf := c.col.DecodeBlock(b, nil)
	if c.blocks[b].CompareAndSwap(nil, &buf) {
		c.bytes.Add(int64(len(buf) * 8))
	} else {
		buf = *c.blocks[b].Load()
	}
	return buf
}

func (c *cachedCol) value(i int) uint64 {
	return c.block(i / colpack.BlockSize)[i%colpack.BlockSize]
}

func newPackView(r *colpack.Reader) *packView {
	pv := &packView{r: r}
	for comp := 0; comp < 3; comp++ {
		pv.cols[comp] = newCachedCol(r.Col(comp), &pv.cachedBytes)
	}
	pv.dictBlocks = make([]atomic.Pointer[[]rdf.Term], r.NDictBlocks())
	pv.geomCache = make(map[uint64]strdf.SpatialValue)
	s := r.Stats()
	pv.stats = &SnapshotStats{
		Triples:   s.Triples,
		DistinctS: s.DistinctS,
		DistinctP: s.DistinctP,
		DistinctO: s.DistinctO,
		Geoms:     s.Geoms,
		Pred:      make(map[uint64]PredicateStats, len(s.Pred)),
	}
	for _, p := range s.Pred {
		pv.stats.Pred[p.ID] = PredicateStats{Count: p.Count, DistinctS: p.DistinctS, DistinctO: p.DistinctO}
	}
	return pv
}

// NewMappedSnapshot wraps an open packed snapshot as a read-only
// Snapshot. The snapshot keeps the reader (and its mapping) alive for
// its own lifetime.
func NewMappedSnapshot(r *colpack.Reader) *Snapshot {
	pv := newPackView(r)
	pv.file = true
	return &Snapshot{version: r.Version(), base: pv}
}

// RestorePacked builds a store whose base is a packed snapshot served in
// place: no column, posting-list or dictionary materialisation happens
// at restore time, so restart-to-first-query is independent of dataset
// size. Writes append to a delta over the file and never copy it; the
// file stays the base until the first fold.
func RestorePacked(r *colpack.Reader) (*Store, error) {
	if r.NRows() < 0 || r.NTerms() < 0 {
		return nil, fmt.Errorf("strabon: packed snapshot with negative meta")
	}
	sn := NewMappedSnapshot(r)
	st := newStore(sn.base)
	st.version = r.Version()
	st.snap = sn
	for id, ps := range sn.base.stats.Pred {
		st.predRows[id] = ps.Count
	}
	return st, nil
}

// --- term access --------------------------------------------------------

func (pv *packView) nTerms() int { return pv.r.NTerms() }
func (pv *packView) nRows() int  { return pv.r.NRows() }

// term decodes one dictionary term by id via the front-coded block
// cache.
func (pv *packView) term(id uint64) (rdf.Term, bool) {
	if id == 0 || id > uint64(pv.nTerms()) {
		return rdf.Term{}, false
	}
	b := int(id-1) / colpack.DictBlockSize
	terms := pv.dictBlock(b)
	return terms[int(id-1)%colpack.DictBlockSize], true
}

func (pv *packView) dictBlock(b int) []rdf.Term {
	if p := pv.dictBlocks[b].Load(); p != nil {
		return *p
	}
	terms := pv.decodeDictBlock(b, nil)
	if pv.dictBlocks[b].CompareAndSwap(nil, &terms) {
		bytes := int64(0)
		for _, t := range terms {
			bytes += int64(len(t.Value)+len(t.Datatype)+len(t.Lang)) + 48
		}
		pv.cachedBytes.Add(bytes)
	} else {
		terms = *pv.dictBlocks[b].Load()
	}
	return terms
}

// dictBlockData returns dictionary block b's bytes and term count.
func (pv *packView) dictBlockData(b int) ([]byte, int) {
	count := min(colpack.DictBlockSize, pv.nTerms()-b*colpack.DictBlockSize)
	return pv.r.DictBlockData(pv.r.DictOff().At(b), pv.r.DictOff().At(b+1)), count
}

// decodeDictBlock decodes block b into out, bypassing the cache.
func (pv *packView) decodeDictBlock(b int, out []rdf.Term) []rdf.Term {
	data, count := pv.dictBlockData(b)
	terms, err := colpack.DecodeDictBlock(data, count, out)
	if err != nil {
		corrupt("dictionary block", b, err)
	}
	return terms
}

// walkDictBlock calls fn with the canonical forms of block b's first
// count terms, decoding and caching nothing.
func (pv *packView) walkDictBlock(b, count int, fn func(canon []byte)) {
	data, _ := pv.dictBlockData(b)
	if err := colpack.WalkDictBlock(data, count, func(c []byte) error { fn(c); return nil }); err != nil {
		corrupt("dictionary block", b, err)
	}
}

// corrupt reports damage found in an image after its verification:
// unreachable on a file that passed Open's checks, so reaching it means
// the mapping changed underneath us.
func corrupt(what string, i int, err error) {
	panic(fmt.Sprintf("strabon: packed %s %d corrupt after verification: %v", what, i, err))
}

// appendTerms appends every term of the image, in id order, to dst.
// Blocks the cache does not hold are decoded without being cached.
func (pv *packView) appendTerms(dst []rdf.Term) []rdf.Term {
	var buf []rdf.Term
	for b := range pv.dictBlocks {
		if p := pv.dictBlocks[b].Load(); p != nil {
			dst = append(dst, *p...)
			continue
		}
		buf = pv.decodeDictBlock(b, buf)
		dst = append(dst, buf...)
	}
	return dst
}

// lookup returns the id of term t through the term index. The first
// lookup in a restored image builds its index in one streaming pass over
// the front-coded blocks, hashing the canonical forms where they are
// decoded, without materialising a term.
func (pv *packView) lookup(t rdf.Term) (uint64, bool) {
	pv.ixOnce.Do(func() {
		if pv.ix == nil {
			ix := newTermIndex(pv.nTerms())
			for b := range pv.dictBlocks {
				_, count := pv.dictBlockData(b)
				pv.walkDictBlock(b, count, ix.add)
			}
			pv.ix = ix
			pv.cachedBytes.Add(ix.bytes())
		}
	})
	return pv.ix.lookup(t, pv)
}

// hasTerm reports whether term id is t, whose canonical form is canon:
// from the block cache when the block is decoded, otherwise by walking
// the block's front coding up to id.
func (pv *packView) hasTerm(id uint64, t rdf.Term, canon []byte) bool {
	b, i := int(id-1)/colpack.DictBlockSize, int(id-1)%colpack.DictBlockSize
	if p := pv.dictBlocks[b].Load(); p != nil {
		return (*p)[i] == t
	}
	k, same := 0, false
	pv.walkDictBlock(b, i+1, func(c []byte) {
		same = k == i && bytes.Equal(c, canon)
		k++
	})
	return same
}

// termIndex finds a base term's id from the hash of its canonical form
// (colpack.AppendTermCanonical): an open-addressing table, at most half
// full, of 8-byte slots holding a 32-bit tag of the hash and the id. A
// tag match is confirmed against the front-coded dictionary, so the
// index holds no strings, and a lookup costs a probe and a partial block
// walk instead of a binary search. It is immutable once built.
type termIndex struct {
	slots []uint64 // tag<<32 | id; 0 marks an empty slot
	mask  uint64
	n     uint64 // terms added
}

var indexSeed = maphash.MakeSeed()

// newTermIndex returns an empty index sized for n terms.
func newTermIndex(n int) *termIndex {
	size := uint64(16)
	if want := uint64(2 * n); want > size {
		size = 1 << bits.Len64(want-1)
	}
	return &termIndex{slots: make([]uint64, size), mask: size - 1}
}

// add indexes the term with the next id, given its canonical form.
func (ix *termIndex) add(canon []byte) {
	h := maphash.Bytes(indexSeed, canon)
	i := h & ix.mask
	for ix.slots[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.n++
	ix.slots[i] = h>>32<<32 | ix.n
}

// lookup returns the id of t in base, whose terms the index holds.
func (ix *termIndex) lookup(t rdf.Term, base *packView) (uint64, bool) {
	var buf [256]byte
	canon := colpack.AppendTermCanonical(buf[:0], t)
	h := maphash.Bytes(indexSeed, canon)
	for i := h & ix.mask; ix.slots[i] != 0; i = (i + 1) & ix.mask {
		if e := ix.slots[i]; e>>32 == h>>32 && base.hasTerm(e&(1<<32-1), t, canon) {
			return e & (1<<32 - 1), true
		}
	}
	return 0, false
}

// bytes is the index's heap footprint.
func (ix *termIndex) bytes() int64 { return int64(len(ix.slots)) * 8 }

// --- row and posting access ----------------------------------------------

func (pv *packView) colID(comp int, row int32) uint64 {
	return pv.cols[comp].value(int(row))
}

// postCount returns the exact cardinality of id in component comp
// without decoding the posting list.
func (pv *packView) postCount(comp int, id uint64) int {
	if id == 0 || id > uint64(pv.nTerms()) {
		return 0
	}
	return int(pv.r.PostCnt(comp).At(int(id - 1)))
}

// posting returns the decoded posting list of id in comp, cached per
// term. Callers must treat the slice as read-only: it is shared.
func (pv *packView) posting(comp int, id uint64) []int32 {
	if id == 0 || id > uint64(pv.nTerms()) {
		return nil
	}
	if v, ok := pv.postings[comp].Load(id); ok {
		return v.([]int32)
	}
	rows := pv.decodePosting(comp, id)
	actual, loaded := pv.postings[comp].LoadOrStore(id, rows)
	if !loaded {
		pv.cachedBytes.Add(int64(len(rows) * 4))
	}
	return actual.([]int32)
}

// decodePosting decodes the posting list of id in comp, bypassing the
// cache.
func (pv *packView) decodePosting(comp int, id uint64) []int32 {
	n := pv.postCount(comp, id)
	if n == 0 {
		return nil
	}
	off := pv.r.PostOff(comp)
	rows, err := colpack.DecodePostings(pv.r.PostingData(comp, off.At(int(id-1)), off.At(int(id))), n, nil)
	if err != nil {
		corrupt(fmt.Sprintf("posting list comp=%d id", comp), int(id), err)
	}
	return rows
}

// find returns the base row holding the triple key, if any: the write
// path's duplicate probe. It reads the smallest of the three posting
// lists and checks each of its rows' other two ids with single-value
// decodes, so that a probe leaves the read caches as it found them.
func (pv *packView) find(key [3]uint64) (int32, bool) {
	comp := 0
	for c := range key {
		if pv.postCount(c, key[c]) < pv.postCount(comp, key[comp]) {
			comp = c
		}
	}
	rows, cached := pv.postings[comp].Load(key[comp])
	if !cached {
		rows = pv.decodePosting(comp, key[comp])
	}
rows:
	for _, row := range rows.([]int32) {
		for c, id := range key {
			if c != comp && pv.r.Col(c).At(int(row)) != id {
				continue rows
			}
		}
		return row, true
	}
	return 0, false
}

// matchRows is MatchRows over the base: one bound component returns the
// shared posting list; otherwise matches go into *buf. The multi-bound
// filter consults per-block zone maps before decoding a block — a
// candidate block whose [min,max] cannot contain the wanted id is
// skipped without touching its packed words.
func (pv *packView) matchRows(pat TriplePattern, buf *[]int32) []int32 {
	var scratch []int32
	if buf == nil {
		buf = &scratch
	}
	type check struct {
		comp int
		id   uint64
	}
	var checks [3]check
	nChecks := 0
	candComp, candID, candN := -1, uint64(0), 0
	for comp, id := range [3]uint64{pat.S, pat.P, pat.O} {
		if id == 0 {
			continue
		}
		n := pv.postCount(comp, id)
		if candComp < 0 || n < candN {
			if candComp >= 0 {
				checks[nChecks] = check{candComp, candID}
				nChecks++
			}
			candComp, candID, candN = comp, id, n
		} else {
			checks[nChecks] = check{comp, id}
			nChecks++
		}
	}
	if candComp < 0 {
		// Full scan: every row matches.
		out := (*buf)[:0]
		for row := 0; row < pv.nRows(); row++ {
			out = append(out, int32(row))
		}
		*buf = out
		return out
	}
	cand := pv.posting(candComp, candID)
	if nChecks == 0 {
		return cand // shared posting list: read-only
	}
	out := (*buf)[:0]
	i := 0
	for i < len(cand) {
		blk := int(cand[i]) / colpack.BlockSize
		blkEnd := int32((blk + 1) * colpack.BlockSize)
		skip := false
		for _, c := range checks[:nChecks] {
			mn, mx, _ := pv.cols[c.comp].col.BlockRange(blk)
			if c.id < mn || c.id > mx {
				skip = true
				break
			}
		}
		if skip {
			// Zone map excludes the block: advance past all its rows
			// without decoding anything.
			for i < len(cand) && cand[i] < blkEnd {
				i++
			}
			continue
		}
		for i < len(cand) && cand[i] < blkEnd {
			row := cand[i]
			i++
			ok := true
			for _, c := range checks[:nChecks] {
				if pv.colID(c.comp, row) != c.id {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, row)
			}
		}
	}
	*buf = out
	return out
}

// --- spatial access -------------------------------------------------------

// ensureGeoms builds the geometry id index and the R-tree from the
// stored envelopes — no WKT parsing, just a bulk load over nGeoms
// boxes, and only on first spatial use.
func (pv *packView) ensureGeoms() {
	pv.geomOnce.Do(func() {
		n := pv.r.NGeoms()
		pv.geomIdx = make(map[uint64]int, n)
		items := make([]rtree.Item, 0, n)
		for i := 0; i < n; i++ {
			id := pv.r.GeomIDs().At(i)
			pv.geomIdx[id] = i
			items = append(items, rtree.Item{Box: pv.r.GeomEnv(i), ID: id})
		}
		pv.spatial = rtree.BulkLoad(items, 0)
	})
}

// geometry returns the WGS84 geometry for a spatial literal id,
// parsing and caching it on first use.
func (pv *packView) geometry(id uint64) (strdf.SpatialValue, bool) {
	pv.geomMu.RLock()
	v, ok := pv.geomCache[id]
	pv.geomMu.RUnlock()
	if ok {
		return v, true
	}
	pv.ensureGeoms()
	if _, ok := pv.geomIdx[id]; !ok {
		return strdf.SpatialValue{}, false
	}
	t, ok := pv.term(id)
	if !ok {
		return strdf.SpatialValue{}, false
	}
	v, err := strdf.ParseWGS84(t)
	if err != nil {
		// The writer only lists ids whose ingest-time parse succeeded.
		return strdf.SpatialValue{}, false
	}
	pv.geomMu.Lock()
	pv.geomCache[id] = v
	pv.geomMu.Unlock()
	return v, true
}

// hasGeom reports whether the image lists id as a spatial literal with a
// geometry: a binary search of its sorted id column with single-value
// decodes, so that the write path neither builds the R-tree nor caches.
func (pv *packView) hasGeom(id uint64) bool {
	ids := pv.r.GeomIDs()
	i := sort.Search(ids.Len(), func(i int) bool { return ids.At(i) >= id })
	return i < ids.Len() && ids.At(i) == id
}

func (pv *packView) spatialCandidates(box geo.Envelope) []uint64 {
	pv.ensureGeoms()
	return pv.spatial.Search(box, nil)
}

func (pv *packView) geomIDs() []uint64 {
	ids := pv.r.GeomIDs()
	out := make([]uint64, 0, ids.Len())
	for b := 0; b < ids.NumBlocks(); b++ {
		out = append(out, ids.DecodeBlock(b, nil)...)
	}
	return out
}

// cachedHeapBytes approximates heap memory pinned by this view's
// decode caches.
func (pv *packView) cachedHeapBytes() int64 { return pv.cachedBytes.Load() }

// --- building an image ----------------------------------------------------

// imageInput is what a fold takes under the store's read lock: the base
// and the delta the store layers on it, with the WAL seq and store
// version the image is labelled with. The delta's slices are prefixes of
// the store's append-only ones, shared, never modified.
type imageInput struct {
	seq, version uint64
	base         *packView
	// removed lists the rows removed since base, ascending: base rows,
	// then appended ones (numbered from base.nRows()).
	removed []int32
	cols    [3][]uint64 // the rows appended since base
	over    []rdf.Term  // the terms since base: id base.nTerms()+i+1 is over[i]
	geoms   map[uint64]strdf.SpatialValue
	// prune drops the geometries no live row's object refers to
	// (Compact).
	prune bool
}

// build folds the base and the delta into one TELPACK1 image and opens
// it as a base, with no store lock held: it streams the base's columns
// and dictionary, skipping removed rows, appends the delta, derives the
// posting lists (counting sort), the planner statistics and the
// geometry envelopes, and encodes. The open verifies the image as it
// verifies a file. The new base is seeded with the parsed geometries at
// hand, so a fold never re-parses WKT, and with the term index of the
// terms at hand. Checkpoints write the same bytes (Snapshot.Image).
func (in *imageInput) build() *packView {
	if testHookFoldEncode != nil {
		testHookFoldEncode()
	}
	b := in.base
	nBase := b.nRows()
	var cols [3][]uint64
	for c := range cols {
		cols[c] = make([]uint64, 0, nBase+len(in.cols[0])-len(in.removed))
	}
	removed := in.removed
	keep := func(row int) bool {
		if len(removed) > 0 && int(removed[0]) == row {
			removed = removed[1:]
			return false
		}
		return true
	}
	var blk [3][]uint64
	for bi := 0; bi < b.cols[0].col.NumBlocks(); bi++ {
		for c := range blk {
			blk[c] = b.cols[c].col.DecodeBlock(bi, blk[c])
		}
		for i := range blk[0] {
			if keep(bi*colpack.BlockSize + i) {
				for c := range cols {
					cols[c] = append(cols[c], blk[c][i])
				}
			}
		}
	}
	for k := range in.cols[0] {
		if keep(nBase + k) {
			for c := range cols {
				cols[c] = append(cols[c], in.cols[c][k])
			}
		}
	}
	terms := append(b.appendTerms(make([]rdf.Term, 0, b.nTerms()+len(in.over))), in.over...)
	nTerms := len(terms)

	// The geometries: the base's and the delta's (never one of the base's),
	// in ascending id order, seeded with the parsed ones at hand.
	var live []bool
	if in.prune {
		live = make([]bool, nTerms+1)
		for _, o := range cols[2] {
			live[o] = true
		}
	}
	baseIDs := b.geomIDs()
	var geomIDs []uint64
	var geomEnvs []geo.Envelope
	seeds := make(map[uint64]strdf.SpatialValue, len(in.geoms))
	b.geomMu.RLock()
	for _, id := range slices.Sorted(slices.Values(append(slices.Collect(maps.Keys(in.geoms)), baseIDs...))) {
		if live != nil && !live[id] {
			continue
		}
		env := geo.Envelope{}
		if v, ok := in.geoms[id]; ok {
			env, seeds[id] = v.Geom.Envelope(), v
		} else {
			i, _ := slices.BinarySearch(baseIDs, id)
			env = b.r.GeomEnv(i)
			if v, ok := b.geomCache[id]; ok {
				seeds[id] = v
			}
		}
		geomIDs, geomEnvs = append(geomIDs, id), append(geomEnvs, env)
	}
	b.geomMu.RUnlock()

	var post [3]postings
	for c := range post {
		post[c] = newPostings(cols[c], nTerms)
	}
	d := &colpack.SnapshotData{
		Seq:      in.seq,
		Version:  in.version,
		S:        cols[0],
		P:        cols[1],
		O:        cols[2],
		Postings: func(c int, id uint64) []int32 { return post[c].of(id) },
		Terms:    terms,
		GeomIDs:  geomIDs,
		GeomEnvs: geomEnvs,
		Stats: colpack.StatsBlock{
			Triples:   len(cols[0]),
			DistinctS: post[0].distinct,
			DistinctP: post[1].distinct,
			DistinctO: post[2].distinct,
			Geoms:     len(geomIDs),
		},
	}
	// Distinct subjects/objects per predicate via epoch marking: one
	// shared mark slot per dictionary id, bumped per predicate, so the
	// whole pass is O(rows) with no per-predicate set allocations.
	markS := make([]uint32, nTerms+1)
	markO := make([]uint32, nTerms+1)
	epoch := uint32(0)
	for pid := uint64(1); pid <= uint64(nTerms); pid++ {
		rows := post[1].of(pid)
		if len(rows) == 0 {
			continue
		}
		epoch++
		ds, do := 0, 0
		for _, r := range rows {
			if s := cols[0][r]; markS[s] != epoch {
				markS[s] = epoch
				ds++
			}
			if o := cols[2][r]; markO[o] != epoch {
				markO[o] = epoch
				do++
			}
		}
		d.Stats.Pred = append(d.Stats.Pred, colpack.PredStat{ID: pid, Count: len(rows), DistinctS: ds, DistinctO: do})
	}
	pv := openImage(d)
	pv.geomCache = seeds
	pv.ix = newTermIndex(nTerms)
	var canon []byte
	for _, t := range terms {
		canon = colpack.AppendTermCanonical(canon[:0], t)
		pv.ix.add(canon)
	}
	pv.cachedBytes.Add(pv.ix.bytes())
	return pv
}

// openImage encodes d and opens the image as a base.
func openImage(d *colpack.SnapshotData) *packView {
	img, err := colpack.Encode(d)
	var r *colpack.Reader
	if err == nil {
		r, err = colpack.OpenBytes(img)
	}
	if err != nil {
		// Unreachable: the input is the store's own consistent state.
		panic(fmt.Sprintf("strabon: fold image: %v", err))
	}
	return newPackView(r)
}

// testHookFoldEncode, when set, runs as an image build starts.
var testHookFoldEncode func()

// postings is one component's posting lists in one backing array.
type postings struct {
	off      []int32 // the rows carrying id are rows[off[id-1]:off[id]]
	rows     []int32
	distinct int // ids with at least one row
}

// newPostings builds a component's posting lists over a compacted id
// column by counting sort over the dense id space: count each id,
// prefix-sum the counts into start offsets, then place the rows in
// order, which advances each id's offset to its end — the next id's
// start. Three linear passes, no per-id allocation.
func newPostings(col []uint64, nTerms int) postings {
	p := postings{off: make([]int32, nTerms+1), rows: make([]int32, len(col))}
	for _, id := range col {
		p.off[id]++
	}
	start := int32(0)
	for id, n := range p.off {
		if n > 0 {
			p.distinct++
		}
		p.off[id] = start
		start += n
	}
	for r, id := range col {
		p.rows[p.off[id]] = int32(r)
		p.off[id]++
	}
	return p
}

func (p *postings) of(id uint64) []int32 { return p.rows[p.off[id-1]:p.off[id]] }
