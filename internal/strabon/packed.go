package strabon

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colpack"
	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/strdf"
)

// packView is the mapped-snapshot backend: a base (flat) whose pack
// field is non-nil answers MatchRows/Cardinality/DecodeAll straight off a
// packed snapshot file (colpack.Reader over an mmap), decoding blocks
// on demand instead of materialising columns, posting lists and the
// dictionary into heap memory. Every structure here is either
// immutable (the mapping) or a concurrency-safe cache — morsel workers
// hit these paths in parallel.
//
// Decoded blocks are cached forever (per snapshot): memory grows with
// the touched working set, not the dataset, and the raw mapped bytes
// stay page-cache-backed either way.
type packView struct {
	r *colpack.Reader

	// cols caches decoded S/P/O value blocks; postOff/postCnt cache
	// the posting index columns the same way.
	cols    [3]cachedCol
	postOff [3]cachedCol
	postCnt [3]cachedCol
	// postings caches fully decoded per-term posting lists
	// (id -> []int32), mirroring the shared heap posting lists.
	postings [3]sync.Map

	dictOff    cachedCol
	perm       cachedCol
	dictBlocks []atomic.Pointer[[]rdf.Term]

	geomIDsCol cachedCol
	// geomOnce builds the id->section-index map and the R-tree on
	// first spatial use, so boots that never run a spatial query pay
	// nothing (mirrors the store's lazy R-tree).
	geomOnce sync.Once
	geomIdx  map[uint64]int
	spatial  *rtree.Tree
	// geomCache holds lazily parsed WGS84 geometries.
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

// decodeAll decodes the whole column into a fresh slice (bypassing
// the cache — used by materialisation, which owns the result).
func (c *cachedCol) decodeAll() []uint64 {
	out := make([]uint64, 0, c.col.Len())
	var buf []uint64
	for b := 0; b < c.col.NumBlocks(); b++ {
		buf = c.col.DecodeBlock(b, buf)
		out = append(out, buf...)
	}
	return out
}

func newPackView(r *colpack.Reader) *packView {
	pv := &packView{r: r}
	for comp := 0; comp < 3; comp++ {
		pv.cols[comp] = newCachedCol(r.Col(comp), &pv.cachedBytes)
		pv.postOff[comp] = newCachedCol(r.PostOff(comp), &pv.cachedBytes)
		pv.postCnt[comp] = newCachedCol(r.PostCnt(comp), &pv.cachedBytes)
	}
	pv.dictOff = newCachedCol(r.DictOff(), &pv.cachedBytes)
	pv.perm = newCachedCol(r.Perm(), &pv.cachedBytes)
	pv.geomIDsCol = newCachedCol(r.GeomIDs(), &pv.cachedBytes)
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
	return &Snapshot{version: r.Version(), useIdx: true, base: &flat{pack: newPackView(r)}}
}

// RestorePacked builds a store whose read view is served in place
// from a packed snapshot: no column, posting-list or dictionary
// materialisation happens at restore time, so restart-to-first-query
// is independent of dataset size. The store lazily materialises the
// heap representation on the first mutation (or legacy index-driven
// read) — the packed file is the read-optimised format, the heap is
// the write-side one. The mapped file stays the base of every later
// view until a fold: materialisation keeps row i at store row i.
func RestorePacked(r *colpack.Reader) (*Store, error) {
	if r.NRows() < 0 || r.NTerms() < 0 {
		return nil, fmt.Errorf("strabon: packed snapshot with negative meta")
	}
	st := NewStore()
	st.version = r.Version()
	sn := NewMappedSnapshot(r)
	st.packed = sn.base.pack
	st.fold = &foldPoint{flat: sn.base, rows: r.NRows()}
	st.snap = sn
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
	start := pv.dictOff.value(b)
	end := pv.dictOff.value(b + 1)
	count := colpack.DictBlockSize
	if last := pv.nTerms() - b*colpack.DictBlockSize; last < count {
		count = last
	}
	terms, err := colpack.DecodeDictBlock(pv.r.DictBlockData(start, end), count, nil)
	if err != nil {
		// Unreachable on a file that passed Open's full verification;
		// reaching it means the mapping changed underneath us.
		panic(fmt.Sprintf("strabon: packed dictionary block %d corrupt after verification: %v", b, err))
	}
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

// lookup binary-searches the sorted permutation column for t.
func (pv *packView) lookup(t rdf.Term) (uint64, bool) {
	n := pv.nTerms()
	i := sort.Search(n, func(i int) bool {
		id := pv.perm.value(i)
		term, _ := pv.term(id)
		return colpack.CompareTerms(term, t) >= 0
	})
	if i == n {
		return 0, false
	}
	id := pv.perm.value(i)
	if term, _ := pv.term(id); term == t {
		return id, true
	}
	return 0, false
}

func (pv *packView) decodeAllTerms(ids []uint64, out []rdf.Term) []rdf.Term {
	out = out[:len(ids)]
	for i, id := range ids {
		t, ok := pv.term(id)
		if !ok {
			t = rdf.Term{}
		}
		out[i] = t
	}
	return out
}

// --- row and posting access ----------------------------------------------

func (pv *packView) colID(comp int, row int32) uint64 {
	return pv.cols[comp].value(int(row))
}

func (pv *packView) row(row int32) (uint64, uint64, uint64) {
	return pv.colID(0, row), pv.colID(1, row), pv.colID(2, row)
}

// postCount returns the exact cardinality of id in component comp
// without decoding the posting list.
func (pv *packView) postCount(comp int, id uint64) int {
	if id == 0 || id > uint64(pv.nTerms()) {
		return 0
	}
	return int(pv.postCnt[comp].value(int(id - 1)))
}

// posting returns the decoded posting list of id in comp, cached per
// term. Callers must treat the slice as read-only (it is shared, like
// the heap snapshot's posting lists).
func (pv *packView) posting(comp int, id uint64) []int32 {
	if id == 0 || id > uint64(pv.nTerms()) {
		return nil
	}
	if v, ok := pv.postings[comp].Load(id); ok {
		return v.([]int32)
	}
	i := int(id - 1)
	cnt := pv.postCnt[comp].value(i)
	if cnt == 0 {
		pv.postings[comp].LoadOrStore(id, []int32(nil))
		return nil
	}
	start := pv.postOff[comp].value(i)
	end := pv.postOff[comp].value(i + 1)
	rows, err := colpack.DecodePostings(pv.r.PostingData(comp, start, end), int(cnt), nil)
	if err != nil {
		panic(fmt.Sprintf("strabon: packed posting list comp=%d id=%d corrupt after verification: %v", comp, id, err))
	}
	actual, loaded := pv.postings[comp].LoadOrStore(id, rows)
	if !loaded {
		pv.cachedBytes.Add(int64(len(rows) * 4))
	}
	return actual.([]int32)
}

// matchRows is MatchRows over the mapped representation. Same
// contract as the heap path: one bound component returns the shared
// posting list; otherwise matches go into *buf. The multi-bound
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

func (pv *packView) cardinality(pat TriplePattern) int {
	est := pv.nRows()
	for comp, id := range [3]uint64{pat.S, pat.P, pat.O} {
		if id == 0 {
			continue
		}
		if n := pv.postCount(comp, id); n < est {
			est = n
		}
	}
	return est
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
			id := pv.geomIDsCol.value(i)
			pv.geomIdx[id] = i
			items = append(items, rtree.Item{Box: pv.r.GeomEnv(i), ID: id})
		}
		pv.spatial = rtree.BulkLoad(items, 0)
	})
}

// geometry parses (and caches) the WGS84 geometry for a spatial
// literal id.
func (pv *packView) geometry(id uint64) (strdf.SpatialValue, bool) {
	pv.ensureGeoms()
	if _, ok := pv.geomIdx[id]; !ok {
		return strdf.SpatialValue{}, false
	}
	pv.geomMu.RLock()
	v, ok := pv.geomCache[id]
	pv.geomMu.RUnlock()
	if ok {
		return v, true
	}
	t, ok := pv.term(id)
	if !ok {
		return strdf.SpatialValue{}, false
	}
	v, err := strdf.ParseSpatial(t)
	if err != nil {
		// The writer only lists ids whose ingest-time parse succeeded.
		return strdf.SpatialValue{}, false
	}
	if w, err := v.ToWGS84(); err == nil {
		v = w
	}
	pv.geomMu.Lock()
	pv.geomCache[id] = v
	pv.geomMu.Unlock()
	return v, true
}

func (pv *packView) spatialCandidates(box geo.Envelope) []uint64 {
	pv.ensureGeoms()
	return pv.spatial.Search(box, nil)
}

func (pv *packView) geomIDs() []uint64 {
	return pv.geomIDsCol.decodeAll()
}

// --- materialisation ------------------------------------------------------

// materializeInto decodes the packed state into st's heap
// representation: columns, dictionary (terms re-encoded in id order,
// so ids are preserved bit-for-bit) and parsed geometries. Secondary
// indexes stay deferred behind lazyIdx exactly as after
// RestoreColumns. Callers hold st's write lock.
func (pv *packView) materializeInto(st *Store) error {
	st.s = pv.cols[0].decodeAll()
	st.p = pv.cols[1].decodeAll()
	st.o = pv.cols[2].decodeAll()
	nTerms := pv.nTerms()
	for b := 0; b*colpack.DictBlockSize < nTerms; b++ {
		for _, t := range pv.dictBlock(b) {
			st.dict.Encode(t)
		}
	}
	if got := st.dict.Len(); got != nTerms {
		return fmt.Errorf("strabon: packed dictionary materialised %d terms, want %d", got, nTerms)
	}
	for _, id := range pv.geomIDs() {
		t, ok := st.dict.Decode(id)
		if !ok {
			return fmt.Errorf("strabon: packed geometry id %d not in dictionary", id)
		}
		v, err := strdf.ParseSpatial(t)
		if err != nil {
			return fmt.Errorf("strabon: packed geometry id %d: %w", id, err)
		}
		if w, err := v.ToWGS84(); err == nil {
			v = w
		}
		st.geoms[id] = v
	}
	st.deleted = 0
	st.lazyIdx = true
	st.spatialStale = len(st.geoms) > 0
	return nil
}

// cachedHeapBytes approximates heap memory pinned by this view's
// decode caches.
func (pv *packView) cachedHeapBytes() int64 { return pv.cachedBytes.Load() }

// sizeBytes is the on-disk (mapped) snapshot size.
func (pv *packView) sizeBytes() int64 { return pv.r.SizeBytes() }

// PackData assembles the packed snapshot writer's input from this
// snapshot's state; seq is the WAL sequence number the snapshot
// covers. The view must have no delta (Store.Fold's views never do);
// one with a delta panics rather than silently packing only its base.
// Re-packing a mapped base decodes it once.
func (sn *Snapshot) PackData(seq uint64) *colpack.SnapshotData {
	if sn.delta != nil {
		panic("strabon: PackData of a view with a delta; pack Store.Fold's view")
	}
	d := &colpack.SnapshotData{Seq: seq, Version: sn.version}
	if pv := sn.base.pack; pv != nil {
		d.S = pv.cols[0].decodeAll()
		d.P = pv.cols[1].decodeAll()
		d.O = pv.cols[2].decodeAll()
		d.Postings = pv.posting
		nTerms := pv.nTerms()
		d.Terms = make([]rdf.Term, 0, nTerms)
		for b := 0; b*colpack.DictBlockSize < nTerms; b++ {
			d.Terms = append(d.Terms, pv.dictBlock(b)...)
		}
		d.GeomIDs = pv.geomIDs()
		d.GeomEnvs = make([]geo.Envelope, len(d.GeomIDs))
		for i := range d.GeomEnvs {
			d.GeomEnvs[i] = pv.r.GeomEnv(i)
		}
		d.Stats = packStats(pv.stats)
		return d
	}
	f := sn.base
	d.S, d.P, d.O = f.cols[0], f.cols[1], f.cols[2]
	d.Postings = f.posting
	nTerms := sn.dict.Len()
	ids := make([]uint64, nTerms)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	d.Terms = sn.dict.DecodeAll(ids, make([]rdf.Term, nTerms))
	d.GeomIDs = sn.GeomIDs()
	d.GeomEnvs = make([]geo.Envelope, len(d.GeomIDs))
	for i, id := range d.GeomIDs {
		d.GeomEnvs[i] = f.geoms[id].Geom.Envelope()
	}
	d.Stats = packStats(sn.Stats())
	return d
}

// packStats converts planner statistics to the serialised form, with
// predicates sorted by id so the file bytes are deterministic.
func packStats(s *SnapshotStats) colpack.StatsBlock {
	out := colpack.StatsBlock{
		Triples:   s.Triples,
		DistinctS: s.DistinctS,
		DistinctP: s.DistinctP,
		DistinctO: s.DistinctO,
		Geoms:     s.Geoms,
		Pred:      make([]colpack.PredStat, 0, len(s.Pred)),
	}
	for id, ps := range s.Pred {
		out.Pred = append(out.Pred, colpack.PredStat{ID: id, Count: ps.Count, DistinctS: ps.DistinctS, DistinctO: ps.DistinctO})
	}
	sort.Slice(out.Pred, func(i, j int) bool { return out.Pred[i].ID < out.Pred[j].ID })
	return out
}
