package strabon

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// The fold policy. A view's delta costs every build O(delta), so once it
// passes 1/foldFraction of its base (and foldMinRows, so that small
// stores do not fold on every write) the next build folds everything into
// a new base instead. A fold holds no store lock while it encodes, so
// writes land meanwhile; the next fold also waits until the delta is
// twice what landed during the last one, so that writers faster than a
// fold cannot keep readers folding back to back.
const (
	foldFraction = 16
	foldMinRows  = 1024
)

// Snapshot is an immutable read view of the store at one version: a base
// (a TELPACK1 image of the last fold — built in memory, or the mapped
// file the store booted from) plus a delta holding only what changed
// since (rows appended, rows removed, geometries cached). Every accessor
// merges the two so that results come out exactly as a full build of the
// same version would return them: the same rows in the same order, the
// same statistics. Nothing in a Snapshot is mutated after it is built, so
// readers never take a lock per row — the vectorized stSPARQL executor
// evaluates whole queries against one Snapshot.
//
// Row ids are the base's row numbers followed by the delta's appended
// rows; a removed row keeps its id but never matches. Term ids are the
// base's followed by the terms written since.
type Snapshot struct {
	version uint64
	base    *packView
	// The view's terms past the base's are the first nOver of over, the
	// store's dictionary of terms written since base, which grows on.
	over  *rdf.Dictionary
	nOver int
	delta *delta // nil when nothing changed since base

	// stats is the delta-adjusted statistics view, built once per
	// snapshot; a snapshot without a delta shares its base's.
	statsOnce sync.Once
	stats     *SnapshotStats
}

// delta is what changed since a view's base: the store rows appended
// since (a prefix of the store's append-only columns, numbered from
// first, with posting lists of the live ones), the rows removed since,
// and the geometries cached since.
type delta struct {
	first int32 // row id of the first appended row: the base's row count
	cols  [3][]uint64
	dead  []int32 // appended rows removed since, ascending
	by    [3]map[uint64][]int32
	// removed lists the base rows removed since the base, ascending;
	// removedBy counts, per component id, the removed rows carrying it.
	removed   []int32
	removedBy [3]map[uint64]int
	geoms     map[uint64]strdf.SpatialValue
	geomIDs   []uint64 // keys of geoms, ascending
	geomEnvs  []geo.Envelope
}

// Mapped reports whether the snapshot is the packed file a store was
// restored from, unchanged: every read is answered in place from it.
//
//lint:allow unreachable(bench/layers.go checks its mapped-read probe with it)
func (sn *Snapshot) Mapped() bool { return sn.delta == nil && sn.base.file }

// Image returns the TELPACK1 image of a view without a delta and the WAL
// sequence number in its header, the last record it covers: the bytes a
// checkpoint writes. A view with a delta has no image of its own and
// returns nil. The bytes are shared and must not be modified.
func (sn *Snapshot) Image() ([]byte, uint64) {
	if sn.delta != nil {
		return nil, 0
	}
	return sn.base.r.Bytes(), sn.base.r.Seq()
}

// Snapshot returns the current read view, building it when the store has
// been mutated since the last one; an unchanged store hands the same view
// to every query. A build costs O(rows changed since the base) unless the
// fold policy asks for a fold. One reader builds at a time; other readers
// that find the view stale wait for that build instead of building their
// own.
func (st *Store) Snapshot() *Snapshot {
	sn, _ := st.view(false, 0)
	return sn
}

// View is Snapshot with the applied seq read under the read lock that
// confirmed or built the view: every WAL record up to it is visible in
// the view. The seq is not cached with the view, because it moves only
// once a write is durable, after the version.
func (st *Store) View() (*Snapshot, uint64) { return st.view(false, 0) }

// Fold returns a current view without a delta, installed as the base
// later views layer on, whose image is labelled seq: the caller vouches
// that every WAL record up to seq is applied. A current view without a
// delta and with that label is returned as is; a store still served from
// its mapped file returns the file, which keeps its own label. (Folds the
// fold policy triggers are labelled with the applied seq.) Checkpoints
// call it and write that image.
func (st *Store) Fold(seq uint64) *Snapshot {
	sn, _ := st.view(true, seq)
	return sn
}

// viewBuild is one in-flight view build.
type viewBuild struct {
	done chan struct{}
	sn   *Snapshot
}

func (st *Store) view(fold bool, seq uint64) (*Snapshot, uint64) {
	for {
		st.mu.RLock()
		want, applied := st.version, st.appliedSeq
		if sn := st.snap; sn != nil && sn.version == want && (!fold || foldedAs(sn, seq)) {
			st.mu.RUnlock()
			return sn, applied
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
			// already observed; then try again. A fold checks the view it
			// needs under the lock.
			if sn := other.sn; sn.version >= want && !fold {
				return sn, applied
			}
			continue
		}
		sn, fp := st.buildViewLocked(fold, seq)
		st.mu.RUnlock()
		if fp != nil {
			// A fold encodes its image with no store lock held: writes go
			// on meanwhile, and later views take them as their delta.
			sn.base = fp.in.build()
		}
		st.mu.Lock()
		st.installLocked(sn, fp)
		st.building.Store(nil)
		st.mu.Unlock()
		b.sn = sn
		close(b.done)
		return sn, applied
	}
}

// foldedAs reports whether sn, a view of the current version, can stand
// as Fold(seq)'s result: it has no delta and its image is labelled seq —
// or it is the mapped file the store booted from, which keeps its label.
func foldedAs(sn *Snapshot, seq uint64) bool {
	_, label := sn.Image()
	return sn.delta == nil && (label == seq || sn.base.file)
}

// buildViewLocked builds the view of the current version: a delta over
// the base, or a fold — returned as a fold point, whose image the caller
// builds once the lock is released — when the caller asks for one
// (labelled seq), a fresh store is first read, or the delta has grown
// past the fold policy (labelled with the applied seq). Callers hold the
// read lock.
func (st *Store) buildViewLocked(fold bool, seq uint64) (*Snapshot, *foldPoint) {
	sn := &Snapshot{version: st.version, base: st.base, over: st.over, nOver: st.over.Len()}
	nBase := st.base.nRows()
	if changed := st.changedLocked(); fold || (nBase == 0 && changed > 0) || changed > max(nBase/foldFraction, foldMinRows, 2*st.lag) {
		if !fold {
			seq = st.appliedSeq
		}
		st.fullBuilds.Add(1)
		st.deltaRows.Store(0)
		sn.over, sn.nOver = nil, 0 // the fold's image holds every term a row refers to
		return sn, st.foldLocked(seq)
	}
	sn.delta = st.deltaLocked()
	st.deltaBuilds.Add(1)
	rows := 0
	if d := sn.delta; d != nil {
		rows = len(d.cols[0]) + len(d.removed)
	}
	st.deltaRows.Store(int64(rows))
	return sn, nil
}

// installLocked caches a built view as current (when no write moved the
// version meanwhile) and a fold as the new base. Builds are single-flight,
// so the base a fold was taken from is still the store's. Callers hold
// the write lock.
func (st *Store) installLocked(sn *Snapshot, fp *foldPoint) {
	if fp != nil {
		st.rebaseLocked(fp, sn.base)
	}
	if sn.version == st.version {
		st.snap = sn
	}
}

// foldPoint is a fold in progress: what its image is built from and
// where the store's delta stood when it was taken; imageInput.build
// builds its image.
type foldPoint struct {
	in       *imageInput
	rows     int // appended rows folded in: len(cols) at the fold
	tombMark int // len(tombLog) at the fold
	geomMark int // len(geomLog) at the fold
}

// foldLocked takes what a fold of the current version, labelled seq, is
// built from: the base, prefixes of the delta's append-only columns and
// terms, the sorted removed rows and the delta's geometries. It copies
// nothing that grows with the base; the image is built by
// foldPoint.build. Callers hold the read lock.
func (st *Store) foldLocked(seq uint64) *foldPoint {
	n := len(st.cols[0])
	in := &imageInput{
		seq:     seq,
		version: st.version,
		base:    st.base,
		removed: slices.Sorted(slices.Values(st.tombLog)),
		over:    st.over.Terms(),
		geoms:   maps.Clone(st.geoms),
	}
	for c := range in.cols {
		in.cols[c] = st.cols[c][:n:n]
	}
	return &foldPoint{in: in, rows: n, tombMark: len(st.tombLog), geomMark: len(st.geomLog)}
}

// deltaLocked collects what changed since the base from the store's
// appended rows and its removal and geometry logs — never a scan of the
// base. The appended columns are shared, not copied. It returns nil when
// nothing changed. Callers hold the read lock.
func (st *Store) deltaLocked() *delta {
	d := &delta{first: int32(st.base.nRows())}
	for _, row := range st.tombLog {
		if row < d.first {
			d.removed = append(d.removed, row)
		} else {
			d.dead = append(d.dead, row)
		}
	}
	slices.Sort(d.removed)
	slices.Sort(d.dead)
	if n := len(st.cols[0]); n > 0 {
		for c := range d.by {
			d.cols[c] = st.cols[c][:n:n]
			d.by[c] = make(map[uint64][]int32)
		}
		d.forLive(func(row int32) {
			for c := range d.by {
				v := d.cols[c][row-d.first]
				d.by[c][v] = append(d.by[c][v], row)
			}
		})
	}
	if len(d.removed) > 0 {
		for c := range d.removedBy {
			d.removedBy[c] = make(map[uint64]int)
		}
		for _, row := range d.removed {
			for c := range d.removedBy {
				d.removedBy[c][st.base.colID(c, row)]++
			}
		}
	}
	if ids := st.geomLog; len(ids) > 0 {
		d.geomIDs = slices.Sorted(slices.Values(ids))
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

// forLive calls fn with every appended row not removed since, ascending.
func (d *delta) forLive(fn func(row int32)) {
	dead := d.dead
	for k := range d.cols[0] {
		row := d.first + int32(k)
		if len(dead) > 0 && dead[0] == row {
			dead = dead[1:]
			continue
		}
		fn(row)
	}
}

// live is the number of appended rows not removed since.
func (d *delta) live() int { return len(d.cols[0]) - len(d.dead) }

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

// --- the merged view ---------------------------------------------------------

// NRows reports the number of live triples in the snapshot.
func (sn *Snapshot) NRows() int {
	n := sn.base.nRows()
	if d := sn.delta; d != nil {
		n += d.live() - len(d.removed)
	}
	return n
}

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

// DecodeTerm decodes a dictionary id: the base's front-coded dictionary
// answers for its own ids, the terms written since for the rest.
func (sn *Snapshot) DecodeTerm(id uint64) (rdf.Term, bool) {
	if n := uint64(sn.base.nTerms()); id > n {
		if id-n > uint64(sn.nOver) {
			return rdf.Term{}, false
		}
		return sn.over.Decode(id - n)
	}
	return sn.base.term(id)
}

// Lookup returns the dictionary id of a term.
func (sn *Snapshot) Lookup(t rdf.Term) (uint64, bool) {
	return lookupTerm(sn.base, sn.over, sn.nOver, t)
}

// lookupTerm finds t among a base's terms and then among the first nOver
// terms written since, whose ids follow the base's.
func lookupTerm(base *packView, over *rdf.Dictionary, nOver int, t rdf.Term) (uint64, bool) {
	id, ok := base.lookup(t)
	if !ok && nOver > 0 {
		if id, ok = over.Lookup(t); ok && id <= uint64(nOver) {
			return id + uint64(base.nTerms()), true
		}
		return 0, false
	}
	return id, ok
}

// LookupID returns the dictionary id for a term (cardSource interface).
//
//lint:allow unreachable(bench/layers.go resolves the probe terms of its per-layer timings with it)
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
	added, removed := d.live() > 0, len(d.removed) > 0
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
		d.forLive(func(row int32) { out = append(out, row) })
		return out
	}
	return filterRows(&d.cols, d.first, ids, candidate, out)
}

// count is the number of live rows carrying id in component comp.
func (sn *Snapshot) count(comp int, id uint64) int {
	n := sn.base.postCount(comp, id)
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
// geometry, sorted ascending.
//
//lint:allow unreachable(bench/layers.go times the spatial candidate probe over it)
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
		return sn.base.stats
	}
	sn.statsOnce.Do(func() { sn.stats = sn.adjustStats() })
	return sn.stats
}

// adjustStats derives a full build's statistics from the base's: only
// the ids, and the (predicate, subject) and (predicate, object) pairs,
// that the delta's rows carry can change a count.
func (sn *Snapshot) adjustStats() *SnapshotStats {
	b, d := sn.base, sn.delta
	bs := b.stats
	st := &SnapshotStats{
		Triples:   bs.Triples + d.live() - len(d.removed),
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
			*distinct[c] += b2i(sn.count(c, id) > 0) - b2i(b.postCount(c, id) > 0)
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
	d.forLive(func(row int32) {
		k := row - d.first
		tally(d.cols[0][k], d.cols[1][k], d.cols[2][k], 0)
	})
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
func (pv *packView) hasPair(p uint64, comp int, x uint64, removed []int32) (exists, live bool) {
	np, nx := pv.postCount(1, p), pv.postCount(comp, x)
	if np == 0 || nx == 0 {
		return false, false
	}
	rows, other, want := pv.posting(1, p), comp, x
	if nx < np {
		rows, other, want = pv.posting(comp, x), 1, p
	}
	for _, row := range rows {
		if pv.colID(other, row) != want {
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
	nGeoms := sn.base.stats.Geoms
	if d := sn.delta; d != nil {
		nGeoms += len(d.geomIDs)
	}
	if nGeoms == 0 {
		return 0
	}
	return float64(len(sn.SpatialCandidates(box))) / float64(nGeoms)
}

// DecodeAll decodes a batch of ids, writing into out (which must have
// len(ids) capacity); unknown ids decode to the zero Term. It returns out.
func (sn *Snapshot) DecodeAll(ids []uint64, out []rdf.Term) []rdf.Term {
	out = out[:len(ids)]
	for i, id := range ids {
		out[i], _ = sn.DecodeTerm(id)
	}
	return out
}
