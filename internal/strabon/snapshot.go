package strabon

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/strdf"
)

// The fold policy. A view's delta costs every build O(delta), so once it
// passes 1/foldFraction of its base (and foldMinRows, so that small
// stores do not fold on every write) the next build folds everything into
// a new base instead.
const (
	foldFraction = 16
	foldMinRows  = 1024
)

// Snapshot is an immutable read view of the store at one version: a base
// (the last full build — heap columns and posting lists, or the mapped
// packed file the store booted from) plus a delta holding only what
// changed since (rows appended, base rows removed, geometries cached).
// Every accessor merges the two so that results come out exactly as a
// full build of the same version would return them: the same rows in the
// same order, the same statistics. Nothing in a Snapshot is mutated after
// it is built, so readers never take a lock per row — the vectorized
// stSPARQL executor evaluates whole queries against one Snapshot.
//
// Row ids are the base's row numbers followed by the delta's appended
// rows; a base row removed since the base keeps its id but never matches.
type Snapshot struct {
	version uint64
	// dict is the store's dictionary; nil while the store is still served
	// from a packed file, whose front-coded dictionary answers instead.
	dict  *rdf.Dictionary
	base  *flat
	delta *delta // nil when nothing changed since base

	// stats is the delta-adjusted statistics view, built once per
	// snapshot; a snapshot without a delta shares its base's.
	statsOnce sync.Once
	stats     *SnapshotStats
}

// flat is one full build: the three compacted dictionary columns with
// per-component posting lists, the geometry cache and its R-tree — or,
// when pack is non-nil, a mapped packed snapshot file answering the same
// reads in place (packed.go) and has no heap fields. It is immutable and
// shared by every Snapshot layered on it.
type flat struct {
	dict    *rdf.Dictionary
	cols    [3][]uint64
	by      [3]map[uint64][]int32
	geoms   map[uint64]strdf.SpatialValue
	spatial *rtree.Tree
	pack    *packView

	// stats is built lazily once per base: the first planned query pays
	// the O(n) pass, every later view over the same base reuses it.
	statsOnce sync.Once
	stats     *SnapshotStats
}

// delta is what changed since a view's base: the store rows appended
// since (with their own columns and posting lists, numbered from first),
// the base rows removed since, and the geometries cached since.
type delta struct {
	first   int32 // row id of the first appended row: the base's row count
	cols    [3][]uint64
	by      [3]map[uint64][]int32
	removed []int32 // base rows removed since the base, ascending
	// removedBy counts, per component id, the removed rows carrying it.
	removedBy [3]map[uint64]int
	geoms     map[uint64]strdf.SpatialValue
	geomIDs   []uint64 // keys of geoms, ascending
	geomEnvs  []geo.Envelope
}

// Mapped reports whether every read of the snapshot is answered in place
// from a packed snapshot file instead of heap structures.
func (sn *Snapshot) Mapped() bool { return sn.delta == nil && sn.base.pack != nil }

// Snapshot returns the current read view, building it when the store has
// been mutated since the last one; an unchanged store hands the same view
// to every query. A build costs O(rows changed since the base) unless the
// fold policy asks for a full build. One reader builds at a time, under
// the read lock; other readers that find the view stale wait for that
// build instead of building their own.
func (st *Store) Snapshot() *Snapshot { return st.view(false) }

// Fold returns a current view without a delta — a full build, installed
// as the base later views layer on. Checkpoints call it: they pack a flat
// view anyway, and installing it lets readers reuse the build.
func (st *Store) Fold() *Snapshot { return st.view(true) }

// viewBuild is one in-flight view build.
type viewBuild struct {
	done chan struct{}
	sn   *Snapshot
}

func (st *Store) view(fold bool) *Snapshot {
	for {
		st.mu.RLock()
		want := st.version
		if sn := st.snap; sn != nil && sn.version == want && (!fold || sn.delta == nil) {
			st.mu.RUnlock()
			return sn
		}
		b := &viewBuild{done: make(chan struct{})}
		if !st.building.CompareAndSwap(nil, b) {
			// Only the builder clears building, under the write lock, so
			// it is still set while this reader holds the read lock.
			other := st.building.Load()
			st.mu.RUnlock()
			st.buildWaits.Add(1)
			<-other.done
			// The builder may have built before a write this reader has
			// already observed; then try again.
			if sn := other.sn; sn.version >= want && (!fold || sn.delta == nil) {
				return sn
			}
			continue
		}
		sn, fp := st.buildViewLocked(fold)
		st.mu.RUnlock()
		st.mu.Lock()
		st.installLocked(sn, fp)
		st.building.Store(nil)
		st.mu.Unlock()
		b.sn = sn
		close(b.done)
		return sn
	}
}

// buildViewLocked builds the view of the current version: a delta over
// the installed base, or a full build (returned as the new fold point)
// when there is no base, the caller asks for one, or the delta has grown
// past the fold policy. Callers hold the read lock.
func (st *Store) buildViewLocked(fold bool) (*Snapshot, *foldPoint) {
	sn := &Snapshot{version: st.version}
	if st.packed != nil {
		// Nothing has been written since boot: the mapped file is the
		// full build of every version the store has had.
		sn.base = st.fold.flat
		return sn, nil
	}
	sn.dict = st.dict
	fp := st.fold
	// Rows appended plus rows removed since the base, against the policy.
	if fold || fp == nil || len(st.s)-fp.rows+len(st.tombLog)-fp.tombMark > max(fp.flat.nRows()/foldFraction, foldMinRows) {
		fp = st.foldLocked()
		sn.base = fp.flat
		st.fullBuilds.Add(1)
		st.deltaRows.Store(0)
		return sn, fp
	}
	sn.base = fp.flat
	sn.delta = st.deltaLocked(fp)
	st.deltaBuilds.Add(1)
	rows := 0
	if d := sn.delta; d != nil {
		rows = len(d.cols[0]) + len(d.removed)
	}
	st.deltaRows.Store(int64(rows))
	return sn, nil
}

// installLocked caches a built view as current (when no write moved the
// version meanwhile) and a full build as the new base (when no Compact
// renumbered the rows meanwhile). Callers hold the write lock.
func (st *Store) installLocked(sn *Snapshot, fp *foldPoint) {
	if fp != nil && fp.epoch == st.epoch {
		st.geomLog = append([]uint64(nil), st.geomLog[fp.geomMark:]...)
		fp.geomMark = 0
		st.fold = fp
	}
	if sn.version == st.version {
		st.snap = sn
	}
}

// foldPoint is a full build installed as the base of later views, with
// where the store stood when it was taken.
type foldPoint struct {
	flat     *flat
	rows     int   // store rows [0, rows) are covered by flat
	tombs    []int // those of them tombstoned at the build, ascending
	tombMark int   // len(tombLog) at the build
	geomMark int   // len(geomLog) at the build
	epoch    uint64
}

// foldLocked is a full build of the current version; callers hold the
// read lock.
func (st *Store) foldLocked() *foldPoint {
	n := len(st.s) - st.deleted
	var cols [3][]uint64
	for c := range cols {
		cols[c] = make([]uint64, 0, n)
	}
	for row := range st.s {
		if st.s[row] == 0 {
			continue
		}
		cols[0] = append(cols[0], st.s[row])
		cols[1] = append(cols[1], st.p[row])
		cols[2] = append(cols[2], st.o[row])
	}
	tombs := slices.Clone(st.tombLog)
	sort.Ints(tombs)
	return &foldPoint{
		flat:     newFlat(st.dict, cols, maps.Clone(st.geoms)),
		rows:     len(st.s),
		tombs:    tombs,
		tombMark: len(st.tombLog),
		geomMark: len(st.geomLog),
		epoch:    st.epoch,
	}
}

// deltaLocked collects what changed since fp from the store's rows past
// fp.rows and its removal and geometry logs — never a scan of the base.
// It returns nil when nothing did. Callers hold the read lock.
func (st *Store) deltaLocked(fp *foldPoint) *delta {
	d := &delta{first: int32(fp.flat.nRows())}
	if appended := len(st.s) - fp.rows; appended > 0 {
		for c := range d.by {
			d.by[c] = make(map[uint64][]int32)
		}
		for row := fp.rows; row < len(st.s); row++ {
			if st.s[row] == 0 {
				continue
			}
			id := d.first + int32(len(d.cols[0]))
			for c, v := range [3]uint64{st.s[row], st.p[row], st.o[row]} {
				d.cols[c] = append(d.cols[c], v)
				d.by[c][v] = append(d.by[c][v], id)
			}
		}
	}
	for _, row := range st.tombLog[fp.tombMark:] {
		if row < fp.rows {
			d.removed = append(d.removed, int32(row-sort.SearchInts(fp.tombs, row)))
		}
	}
	if len(d.removed) > 0 {
		sort.Slice(d.removed, func(i, j int) bool { return d.removed[i] < d.removed[j] })
		for c := range d.removedBy {
			d.removedBy[c] = make(map[uint64]int)
		}
		for _, row := range d.removed {
			for c := range d.removedBy {
				d.removedBy[c][fp.flat.colID(c, row)]++
			}
		}
	}
	if ids := st.geomLog[fp.geomMark:]; len(ids) > 0 {
		d.geomIDs = append([]uint64(nil), ids...)
		sort.Slice(d.geomIDs, func(i, j int) bool { return d.geomIDs[i] < d.geomIDs[j] })
		d.geoms = make(map[uint64]strdf.SpatialValue, len(ids))
		d.geomEnvs = make([]geo.Envelope, len(ids))
		for i, id := range d.geomIDs {
			v := st.geoms[id]
			d.geoms[id] = v
			d.geomEnvs[i] = v.Geom.Envelope()
		}
	}
	if len(d.cols[0]) == 0 && len(d.removed) == 0 && len(d.geomIDs) == 0 {
		return nil
	}
	return d
}

// newFlat indexes compacted columns and their geometries as a heap base.
func newFlat(dict *rdf.Dictionary, cols [3][]uint64, geoms map[uint64]strdf.SpatialValue) *flat {
	f := &flat{dict: dict, cols: cols, geoms: geoms}
	// Posting lists are built with a counting-sort pass over the dense
	// id space rather than per-row map appends: count occurrences per
	// id, carve one shared backing array into per-id slices, fill, and
	// insert each distinct id into the map once. On a million-row store
	// this replaces three million map operations with three linear
	// passes plus one map insert per distinct term.
	counts := make([]int32, dict.Len()+1)
	for c := range cols {
		f.by[c] = buildPostings(cols[c], counts)
	}
	items := make([]rtree.Item, 0, len(geoms))
	for id, v := range geoms {
		items = append(items, rtree.Item{Box: v.Geom.Envelope(), ID: id})
	}
	// Deterministic build input (map iteration order varies).
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
	f.spatial = rtree.BulkLoad(items, 0)
	return f
}

// buildPostings builds one component's posting-list index over a
// compacted id column via counting sort. counts is caller-provided
// scratch of length dict.Len()+1, zeroed on return.
func buildPostings(col []uint64, counts []int32) map[uint64][]int32 {
	distinct := 0
	for _, id := range col {
		if counts[id] == 0 {
			distinct++
		}
		counts[id]++
	}
	// Prefix-sum counts into start offsets; after the fill pass each
	// entry has advanced to its end offset, and since offsets are
	// assigned in id order, a slice's start is its predecessor's end.
	off := int32(0)
	for id := range counts {
		c := counts[id]
		counts[id] = off
		off += c
	}
	backing := make([]int32, len(col))
	for r, id := range col {
		backing[counts[id]] = int32(r)
		counts[id]++
	}
	idx := make(map[uint64][]int32, distinct)
	prevEnd := int32(0)
	for id := 1; id < len(counts); id++ {
		end := counts[id]
		if end != prevEnd {
			idx[uint64(id)] = backing[prevEnd:end:end]
		}
		prevEnd = end
	}
	// Zero the scratch for the next column.
	for id := range counts {
		counts[id] = 0
	}
	return idx
}

// --- flat (base) access ----------------------------------------------------

func (f *flat) nRows() int {
	if f.pack != nil {
		return f.pack.nRows()
	}
	return len(f.cols[0])
}

func (f *flat) colID(comp int, row int32) uint64 {
	if f.pack != nil {
		return f.pack.colID(comp, row)
	}
	return f.cols[comp][row]
}

// count is the number of rows carrying id in component comp.
func (f *flat) count(comp int, id uint64) int {
	if f.pack != nil {
		return f.pack.postCount(comp, id)
	}
	return len(f.by[comp][id])
}

func (f *flat) posting(comp int, id uint64) []int32 {
	if f.pack != nil {
		return f.pack.posting(comp, id)
	}
	return f.by[comp][id]
}

func (f *flat) matchRows(pat TriplePattern, buf *[]int32) []int32 {
	if f.pack != nil {
		return f.pack.matchRows(pat, buf)
	}
	var scratch []int32
	if buf == nil {
		buf = &scratch
	}
	ids := [3]uint64{pat.S, pat.P, pat.O}
	bound, comp := 0, -1
	for c, id := range ids {
		if id != 0 {
			bound++
			if comp < 0 || f.count(c, id) < f.count(comp, ids[comp]) {
				comp = c
			}
		}
	}
	if bound == 0 {
		// Full scan: every row matches.
		out := (*buf)[:0]
		for row := range f.cols[0] {
			out = append(out, int32(row))
		}
		*buf = out
		return out
	}
	candidate := f.posting(comp, ids[comp])
	if bound == 1 {
		return candidate // shared posting list: read-only
	}
	*buf = filterRows(&f.cols, 0, ids, candidate, (*buf)[:0])
	return *buf
}

// filterRows appends to out the rows of candidate whose columns (cols
// holds the rows numbered from first) carry every bound id.
func filterRows(cols *[3][]uint64, first int32, ids [3]uint64, candidate, out []int32) []int32 {
candLoop:
	for _, row := range candidate {
		for c, id := range ids {
			if id != 0 && cols[c][row-first] != id {
				continue candLoop
			}
		}
		out = append(out, row)
	}
	return out
}

func (f *flat) geometry(id uint64) (strdf.SpatialValue, bool) {
	if f.pack != nil {
		return f.pack.geometry(id)
	}
	v, ok := f.geoms[id]
	return v, ok
}

func (f *flat) spatialCandidates(box geo.Envelope) []uint64 {
	if f.pack != nil {
		return f.pack.spatialCandidates(box)
	}
	return f.spatial.Search(box, nil)
}

func (f *flat) geomIDs() []uint64 {
	if f.pack != nil {
		return f.pack.geomIDs()
	}
	out := make([]uint64, 0, len(f.geoms))
	for id := range f.geoms {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (f *flat) nGeoms() int {
	if f.pack != nil {
		return f.pack.stats.Geoms
	}
	return len(f.geoms)
}

// --- the merged view ---------------------------------------------------------

// NRows reports the number of live triples in the snapshot.
func (sn *Snapshot) NRows() int {
	n := sn.base.nRows()
	if d := sn.delta; d != nil {
		n += len(d.cols[0]) - len(d.removed)
	}
	return n
}

// Dict exposes the term dictionary backing the snapshot's ids. It is
// nil on a snapshot of a store still served from a packed file, whose
// dictionary lives front-coded in the file — use DecodeTerm / Lookup /
// DecodeAll instead, which work in both modes.
func (sn *Snapshot) Dict() *rdf.Dictionary { return sn.dict }

// Version reports the store version this snapshot was built at.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Row returns the (s, p, o) ids of a snapshot row without locking.
func (sn *Snapshot) Row(row int32) (uint64, uint64, uint64) {
	return sn.ColID(0, row), sn.ColID(1, row), sn.ColID(2, row)
}

// ColID returns one component id (0=S, 1=P, 2=O) of a snapshot row —
// the executor's column accessor.
func (sn *Snapshot) ColID(comp int, row int32) uint64 {
	if d := sn.delta; d != nil && row >= d.first {
		return d.cols[comp][row-d.first]
	}
	return sn.base.colID(comp, row)
}

// DecodeTerm decodes a dictionary id in either mode.
func (sn *Snapshot) DecodeTerm(id uint64) (rdf.Term, bool) {
	if sn.dict == nil {
		return sn.base.pack.term(id)
	}
	return sn.dict.Decode(id)
}

// Lookup returns the dictionary id of a term in either mode.
func (sn *Snapshot) Lookup(t rdf.Term) (uint64, bool) {
	if sn.dict == nil {
		return sn.base.pack.lookup(t)
	}
	return sn.dict.Lookup(t)
}

// LookupID returns the dictionary id for a term (cardSource interface).
func (sn *Snapshot) LookupID(t rdf.Term) (uint64, error) {
	id, ok := sn.Lookup(t)
	if !ok {
		return 0, ErrNotFound
	}
	return id, nil
}

// MatchRows returns the snapshot rows matching the pattern, ascending.
// When exactly one component is bound and neither the delta's appended
// nor its removed rows carry that id, the base's posting list itself is
// returned — callers must treat the result as read-only. Otherwise
// matches are written into *buf (the caller's reusable scratch, grown as
// needed) and its filled prefix is returned. buf may be nil for a one-shot
// allocation.
func (sn *Snapshot) MatchRows(pat TriplePattern, buf *[]int32) []int32 {
	d := sn.delta
	if d == nil {
		return sn.base.matchRows(pat, buf)
	}
	ids := [3]uint64{pat.S, pat.P, pat.O}
	added, removed := len(d.cols[0]) > 0, len(d.removed) > 0
	for c, id := range ids {
		if id != 0 {
			added = added && len(d.by[c][id]) > 0
			removed = removed && d.removedBy[c][id] > 0
		}
	}
	if !added && !removed {
		return sn.base.matchRows(pat, buf)
	}
	if buf == nil {
		buf = new([]int32)
	}
	rows := sn.base.matchRows(pat, buf)
	// rows is either *buf's own prefix or a shared posting list; the
	// filters below write at or behind where they read.
	out := (*buf)[:0]
	if removed {
		j := 0
		for _, row := range rows {
			for j < len(d.removed) && d.removed[j] < row {
				j++
			}
			if j < len(d.removed) && d.removed[j] == row {
				continue
			}
			out = append(out, row)
		}
	} else {
		out = append(out, rows...)
	}
	if added {
		out = d.match(ids, out)
	}
	*buf = out
	return out
}

// match appends the appended rows matching ids to out.
func (d *delta) match(ids [3]uint64, out []int32) []int32 {
	var candidate []int32
	candSet := false
	for c, id := range ids {
		if id != 0 && (!candSet || len(d.by[c][id]) < len(candidate)) {
			candidate, candSet = d.by[c][id], true
		}
	}
	if !candSet {
		for k := range d.cols[0] {
			out = append(out, d.first+int32(k))
		}
		return out
	}
	return filterRows(&d.cols, d.first, ids, candidate, out)
}

// count is the number of live rows carrying id in component comp.
func (sn *Snapshot) count(comp int, id uint64) int {
	n := sn.base.count(comp, id)
	if d := sn.delta; d != nil {
		n += len(d.by[comp][id]) - d.removedBy[comp][id]
	}
	return n
}

// Cardinality estimates the number of matches for a pattern without
// materialising them (cardSource interface): the smallest bound
// component's row count.
func (sn *Snapshot) Cardinality(pat TriplePattern) int {
	est := sn.NRows()
	for c, id := range [3]uint64{pat.S, pat.P, pat.O} {
		if id != 0 {
			est = min(est, sn.count(c, id))
		}
	}
	return est
}

// Geometry returns the cached WGS84 geometry for a spatial literal id.
func (sn *Snapshot) Geometry(id uint64) (strdf.SpatialValue, bool) {
	if v, ok := sn.base.geometry(id); ok {
		return v, true
	}
	if d := sn.delta; d != nil {
		v, ok := d.geoms[id]
		return v, ok
	}
	return strdf.SpatialValue{}, false
}

// SpatialCandidates returns ids of spatial literals whose envelope
// intersects box: the base's via its R-tree, the delta's few geometries
// by a scan. The result is a set: its order is unspecified.
func (sn *Snapshot) SpatialCandidates(box geo.Envelope) []uint64 {
	out := sn.base.spatialCandidates(box)
	if d := sn.delta; d != nil {
		for i, env := range d.geomEnvs {
			if env.Intersects(box) {
				out = append(out, d.geomIDs[i])
			}
		}
	}
	return out
}

// GeomIDs returns the ids of every spatial literal with a cached
// geometry, sorted ascending — the deterministic input the binary
// snapshot writer serialises.
func (sn *Snapshot) GeomIDs() []uint64 {
	ids := sn.base.geomIDs()
	d := sn.delta
	if d == nil || len(d.geomIDs) == 0 {
		return ids
	}
	out := make([]uint64, 0, len(ids)+len(d.geomIDs))
	i, j := 0, 0
	for i < len(ids) || j < len(d.geomIDs) {
		if j == len(d.geomIDs) || (i < len(ids) && ids[i] < d.geomIDs[j]) {
			out = append(out, ids[i])
			i++
		} else {
			out = append(out, d.geomIDs[j])
			j++
		}
	}
	return out
}

// PredicateStats summarises one predicate's triples for the planner.
type PredicateStats struct {
	// Count is the number of triples with this predicate.
	Count int
	// DistinctS / DistinctO count the distinct subjects / objects among
	// those triples: Count/DistinctS is the expected matches of
	// (?s p ?o) once ?s is bound — the classic equality-selectivity
	// estimate the join planner uses in place of a fixed discount.
	DistinctS int
	DistinctO int
}

// SnapshotStats is the statistics view the stSPARQL planner feeds on:
// per-predicate triple and distinct-subject/object counts plus global
// distinct counts, computed once per snapshot.
type SnapshotStats struct {
	Triples   int
	DistinctS int
	DistinctP int
	DistinctO int
	// Geoms is the number of spatial literals with a cached geometry
	// (the R-tree population, the denominator of spatial selectivity).
	Geoms int
	Pred  map[uint64]PredicateStats
}

// Stats returns the snapshot's planner statistics — exactly those a full
// build of the same version computes — building them on first use and
// caching them for the snapshot's lifetime. Safe for concurrent callers.
func (sn *Snapshot) Stats() *SnapshotStats {
	if sn.delta == nil {
		return sn.base.statsView()
	}
	sn.statsOnce.Do(func() { sn.stats = sn.adjustStats() })
	return sn.stats
}

func (f *flat) statsView() *SnapshotStats {
	if f.pack != nil {
		// Mapped bases carry the statistics precomputed in the file's
		// stats section: no O(n) pass, ever.
		return f.pack.stats
	}
	f.statsOnce.Do(func() { f.stats = f.buildStats() })
	return f.stats
}

func (f *flat) buildStats() *SnapshotStats {
	st := &SnapshotStats{
		Triples:   len(f.cols[0]),
		DistinctS: len(f.by[0]),
		DistinctP: len(f.by[1]),
		DistinctO: len(f.by[2]),
		Geoms:     len(f.geoms),
		Pred:      make(map[uint64]PredicateStats, len(f.by[1])),
	}
	// Distinct subjects/objects per predicate via epoch marking: one
	// shared mark slot per dictionary id, bumped per predicate, so the
	// whole pass is O(rows) with no per-predicate set allocations.
	markS := make([]uint32, f.dict.Len()+1)
	markO := make([]uint32, f.dict.Len()+1)
	epoch := uint32(0)
	for pid, rows := range f.by[1] {
		epoch++
		ds, do := 0, 0
		for _, r := range rows {
			if s := f.cols[0][r]; markS[s] != epoch {
				markS[s] = epoch
				ds++
			}
			if o := f.cols[2][r]; markO[o] != epoch {
				markO[o] = epoch
				do++
			}
		}
		st.Pred[pid] = PredicateStats{Count: len(rows), DistinctS: ds, DistinctO: do}
	}
	return st
}

// adjustStats derives a full build's statistics from the base's: only
// the ids, and the (predicate, subject) and (predicate, object) pairs,
// that the delta's rows carry can change a count.
func (sn *Snapshot) adjustStats() *SnapshotStats {
	b, d := sn.base, sn.delta
	bs := b.statsView()
	st := &SnapshotStats{
		Triples:   bs.Triples + len(d.cols[0]) - len(d.removed),
		DistinctS: bs.DistinctS,
		DistinctP: bs.DistinctP,
		DistinctO: bs.DistinctO,
		Geoms:     bs.Geoms + len(d.geomIDs),
		Pred:      make(map[uint64]PredicateStats, len(bs.Pred)+len(d.by[1])),
	}
	for p, ps := range bs.Pred {
		st.Pred[p] = ps
	}
	distinct := [3]*int{&st.DistinctS, &st.DistinctP, &st.DistinctO}
	for c := range distinct {
		adjust := func(id uint64) {
			*distinct[c] += b2i(sn.count(c, id) > 0) - b2i(b.count(c, id) > 0)
		}
		for id := range d.by[c] {
			adjust(id)
		}
		for id := range d.removedBy[c] {
			if _, seen := d.by[c][id]; !seen {
				adjust(id)
			}
		}
	}
	// pairs[0] keys (predicate, subject), pairs[1] (predicate, object);
	// the value counts the pair's appended ([0]) and removed ([1]) rows.
	var pairs [2]map[[2]uint64][2]int
	for i := range pairs {
		pairs[i] = make(map[[2]uint64][2]int)
	}
	tally := func(s, p, o uint64, wasRemoved int) {
		ps := st.Pred[p]
		ps.Count += 1 - 2*wasRemoved
		st.Pred[p] = ps
		for i, x := range [2]uint64{s, o} {
			n := pairs[i][[2]uint64{p, x}]
			n[wasRemoved]++
			pairs[i][[2]uint64{p, x}] = n
		}
	}
	for k := range d.cols[0] {
		tally(d.cols[0][k], d.cols[1][k], d.cols[2][k], 0)
	}
	for _, row := range d.removed {
		tally(b.colID(0, row), b.colID(1, row), b.colID(2, row), 1)
	}
	for i, comp := range [2]int{0, 2} {
		for key, n := range pairs[i] {
			before, live := b.hasPair(key[0], comp, key[1], d.removed)
			after := n[0] > 0 || live
			ps := st.Pred[key[0]]
			if i == 0 {
				ps.DistinctS += b2i(after) - b2i(before)
			} else {
				ps.DistinctO += b2i(after) - b2i(before)
			}
			st.Pred[key[0]] = ps
		}
	}
	for p, ps := range st.Pred {
		if ps.Count == 0 {
			delete(st.Pred, p)
		}
	}
	return st
}

// hasPair reports whether the base holds a row with predicate p and
// component comp equal to x, and whether one such row is not in removed
// (ascending). It scans the shorter of the two posting lists and stops
// at the first live match.
func (f *flat) hasPair(p uint64, comp int, x uint64, removed []int32) (exists, live bool) {
	np, nx := f.count(1, p), f.count(comp, x)
	if np == 0 || nx == 0 {
		return false, false
	}
	rows, other, want := f.posting(1, p), comp, x
	if nx < np {
		rows, other, want = f.posting(comp, x), 1, p
	}
	for _, row := range rows {
		if f.colID(other, row) != want {
			continue
		}
		exists = true
		i := sort.Search(len(removed), func(i int) bool { return removed[i] >= row })
		if i == len(removed) || removed[i] != row {
			return true, true
		}
	}
	return exists, false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SpatialSelectivity estimates the fraction of stored geometries whose
// envelope intersects box, by counting R-tree candidates. Exact for the
// candidate-set pruning the executor performs (which is envelope-based
// too), so the planner's spatial estimates are as good as the index.
func (sn *Snapshot) SpatialSelectivity(box geo.Envelope) float64 {
	nGeoms := sn.base.nGeoms()
	if d := sn.delta; d != nil {
		nGeoms += len(d.geomIDs)
	}
	if nGeoms == 0 {
		return 0
	}
	return float64(len(sn.SpatialCandidates(box))) / float64(nGeoms)
}

// DecodeAll decodes a batch of ids under one dictionary lock, writing into
// out (which must have len(ids) capacity); unknown ids decode to the zero
// Term. It returns out.
func (sn *Snapshot) DecodeAll(ids []uint64, out []rdf.Term) []rdf.Term {
	if sn.dict == nil {
		return sn.base.pack.decodeAllTerms(ids, out)
	}
	return sn.dict.DecodeAll(ids, out)
}
