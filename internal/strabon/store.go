// Package strabon implements the Strabon geospatial RDF store of the
// paper: triples dictionary-encoded into three parallel integer columns
// (the MonetDB layout under the real Strabon).
//
// The package has one write side and one read side over one base: a
// TELPACK1 image (internal/colpack) — the packed snapshot file a store
// was restored from (RestorePacked), served in place, or the image of
// the last fold. Store, the write side, layers a delta on the base and
// never copies the base to the heap: rows appended (append-only
// columns), rows removed, terms new since (ids after the base's, never
// renumbered), their geometries, and a duplicate set over the appended
// rows; a hash index over the base's terms answers its lookups. Every
// read goes through Snapshot, an immutable view of one store version:
// the base — posting lists, geometry envelopes and per-predicate
// statistics for the stSPARQL optimizer — plus a prefix of the delta. A
// fold streams base and delta into a new image with no lock held, and a
// checkpoint writes those bytes.
package strabon

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/colpack"
	"repro/internal/rdf"
	"repro/internal/strdf"
)

// Journal receives one write-ahead record per mutation, invoked while
// the store's write lock is held and strictly before the in-memory
// structures change. An implementation (internal/persist) encodes a log
// record, assigns it the next WAL sequence number, and returns a Commit
// ticket; a non-nil error vetoes the mutation synchronously — nothing
// was applied, nothing was logged — and Apply returns it wrapped in
// ErrVetoed (it is also kept for JournalErr).
//
// LogApply receives one statement — every deletion and insertion of an
// Apply or Update — already deduplicated against the store: dels holds
// only triples present, ins only triples absent once dels are gone,
// each once. Replaying the record (dels first, then ins) therefore
// reproduces the statement exactly, and a crash can never leave part of
// it durable.
//
// Sequence assignment is deliberately split from the durability wait:
// the Log* hooks run under the store's write lock and must only do the
// fast part (encode, assign, enqueue). The caller applies the mutation,
// releases the lock, and THEN awaits the ticket — so K concurrent
// writers can share one group fsync instead of paying K fsyncs in
// series under the lock. A ticket failure after the mutation applied
// means the journal has latched broken (see Commit); the caller reports
// it as a veto.
//
// The ticket's sequence number becomes the store's applied-seq
// watermark (AppliedSeq) once the record is durable: the watermark
// moves only AFTER both the state change is visible and the record is
// on stable storage, so a reader that observes AppliedSeq() >= N is
// guaranteed to see the effects of WAL record N.
type Journal interface {
	LogApply(dels, ins []rdf.Triple) (Commit, error)
}

// ErrVetoed marks a write the journal refused to log, or whose record
// did not become durable; Apply, Update and LoadNTriples wrap it around
// the journal's own error. A vetoed write must not be acknowledged.
var ErrVetoed = errors.New("strabon: write rejected by the write-ahead journal")

// Commit is a durability ticket for one journalled mutation: the WAL
// sequence number the record was assigned, and a Wait that blocks until
// the record reaches stable storage per the journal's sync policy (for
// group commit: until the batch containing it is written and fsynced).
// A nil Wait means the record is already durable (test journals).
//
// A non-nil Wait error means the record — and everything batched behind
// it — did NOT become durable even though the in-memory mutation is
// already applied. The journal latches itself broken in that case
// (every later write is vetoed until a restart re-truncates the log),
// precisely because the memory/log divergence cannot be healed online:
// a client retrying the "failed" write would be deduplicated against
// the applied state and never re-journalled, silently losing it.
type Commit struct {
	Seq  uint64
	Wait func() error
}

// Await waits for durability; nil-Wait tickets are already durable.
func (c Commit) Await() error {
	if c.Wait == nil {
		return nil
	}
	return c.Wait()
}

// Store is the triple store's write side; reads go through Snapshot.
// Its methods are safe for concurrent use. Every mutation takes writeMu
// and then mu exclusively; readers never take writeMu.
type Store struct {
	// writeMu serialises mutations (Apply and Update). Update holds
	// it while it reads the view its statement is computed from, so no
	// other write lands between that read and its apply; mu is held only
	// for the apply itself, so readers wait for installs, never for an
	// Update's read.
	writeMu sync.Mutex
	mu      sync.RWMutex
	// base is the image the delta below layers on. over holds the terms
	// new since base: over's id i is store id base.nTerms()+i.
	base *packView
	over *rdf.Dictionary
	// cols holds the rows appended since base: store row base.nRows()+k
	// is cols[.][k]. The columns are append-only — views share their
	// prefixes — so a removed row keeps its values and is only logged.
	cols [3][]uint64
	// dup is the duplicate set over the live appended rows: spo -> k.
	// tombs holds every row removed since base, base or appended, and
	// tombLog lists them in removal order.
	dup     map[[3]uint64]int32
	tombs   map[int32]struct{}
	tombLog []int32
	// geoms holds the WGS84 geometries of the spatial literals first
	// written as objects since base (the base's own are in its image);
	// geomLog lists their ids in that order.
	geoms   map[uint64]strdf.SpatialValue
	geomLog []uint64
	// predRows counts the live rows of each predicate, so that
	// Stats().Predicates is len(predRows) rather than a scan.
	predRows map[uint64]int
	// lag is how many rows changed while the last fold was encoding:
	// the fold policy waits for twice that before the next one.
	lag int
	// version counts successful mutations; a view records the one it was
	// built at.
	version uint64
	// appliedSeq is the WAL sequence number of the newest durable record
	// whose mutation is visible in the store — the replication watermark.
	// It moves after the mutation applies (never before), is seeded by
	// persist recovery, and stays 0 on purely in-memory stores. Unlike
	// version it is comparable ACROSS processes: a primary and a replica
	// at the same appliedSeq hold identical logical contents.
	appliedSeq uint64
	// snap caches the immutable read view handed to the vectorized
	// executor; a new one is built lazily when version moves past it.
	snap *Snapshot
	// building is the in-flight view build stale readers wait on (single
	// flight, see Store.Snapshot); the counters feed ViewCounters.
	building                            atomic.Pointer[viewBuild]
	fullBuilds, deltaBuilds, buildWaits atomic.Uint64
	deltaRows                           atomic.Int64
	// journal, when set, is notified ahead of every mutation (see
	// Journal). journalErr latches the newest veto for diagnostics.
	journal    Journal
	journalErr error
}

// NewStore returns an empty store: its base is the empty image.
func NewStore() *Store { return newStore(openImage(&colpack.SnapshotData{})) }

func newStore(base *packView) *Store {
	return &Store{
		base:     base,
		over:     rdf.NewDictionary(),
		dup:      make(map[[3]uint64]int32),
		tombs:    make(map[int32]struct{}),
		geoms:    make(map[uint64]strdf.SpatialValue),
		predRows: make(map[uint64]int),
	}
}

// ViewCounters counts the read views (Snapshots) a store has built.
type ViewCounters struct {
	// FullBuilds and DeltaBuilds count views built by a full fold and by
	// a delta over the installed base; BuildWaits counts readers that
	// waited for another reader's build instead of building.
	FullBuilds, DeltaBuilds, BuildWaits uint64
	// DeltaRows is the size of the newest view's delta: rows appended
	// since its base plus base rows removed since.
	DeltaRows int64
}

// ViewCounters reports the store's view-build counters.
func (st *Store) ViewCounters() ViewCounters {
	return ViewCounters{
		FullBuilds:  st.fullBuilds.Load(),
		DeltaBuilds: st.deltaBuilds.Load(),
		BuildWaits:  st.buildWaits.Load(),
		DeltaRows:   st.deltaRows.Load(),
	}
}

// Len reports the number of live triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lenLocked()
}

func (st *Store) lenLocked() int { return st.base.nRows() + len(st.cols[0]) - len(st.tombLog) }

// changedLocked counts the rows appended and removed since the base.
// Callers hold the read lock.
func (st *Store) changedLocked() int { return len(st.cols[0]) + len(st.tombLog) }

// Apply deletes dels and then inserts ins as one mutation and reports
// how many triples it changed: the deletions of triples that were
// present plus the insertions of triples that were absent once the
// deletions were done, each counted once. Under one hold of the write
// lock it deduplicates, journals the rest as one record and installs
// it, so a reader sees all of the statement or none of it, and a crash
// keeps all of it or none of it. The durability wait happens after the
// lock is released (see Journal), so concurrent writers share group
// commits. A journal refusal returns 0 and an error wrapping ErrVetoed.
func (st *Store) Apply(dels, ins []rdf.Triple) (int, error) {
	return st.write(func() ([]rdf.Triple, []rdf.Triple, error) { return dels, ins, nil })
}

// Update is Apply for a statement computed from the store itself (a
// SPARQL DELETE/INSERT … WHERE): fn reads the current view and returns
// the deletions and insertions, which are applied before any other
// write can land — concurrent Updates are serialisable. Readers are not
// held up while fn runs. fn must not write to the store; an error from
// it is returned and nothing is applied.
func (st *Store) Update(fn func(*Snapshot) (dels, ins []rdf.Triple, err error)) (int, error) {
	return st.write(func() ([]rdf.Triple, []rdf.Triple, error) { return fn(st.Snapshot()) })
}

// write runs one statement: stmt computes it holding writeMu, it is
// applied holding mu too, and its ticket is awaited once both are
// released.
func (st *Store) write(stmt func() (dels, ins []rdf.Triple, err error)) (int, error) {
	n, c, err := func() (int, Commit, error) {
		st.writeMu.Lock()
		defer st.writeMu.Unlock()
		dels, ins, err := stmt()
		if err != nil {
			return 0, Commit{}, err
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.applyLocked(dels, ins)
	}()
	if err == nil {
		err = st.await(c)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// applyLocked deduplicates a statement against the store, journals what
// is left as one record and installs it; callers hold writeMu and mu.
// Encoding an insertion may add a term even when the triple is then
// dropped as a duplicate or vetoed — that is harmless: term ids only
// become observable through stored triples.
func (st *Store) applyLocked(dels, ins []rdf.Triple) (int, Commit, error) {
	var delTs []rdf.Triple
	var delRows []int32
	var delKeys [][3]uint64
	gone := make(map[[3]uint64]struct{}, len(dels))
	for _, t := range dels {
		// An unknown term looks up as id 0, which no stored row carries.
		key := [3]uint64{st.lookupLocked(t.S), st.lookupLocked(t.P), st.lookupLocked(t.O)}
		row, live := st.rowLocked(key)
		if _, dup := gone[key]; !live || dup {
			continue
		}
		gone[key] = struct{}{}
		delTs = append(delTs, t)
		delRows = append(delRows, row)
		delKeys = append(delKeys, key)
	}
	insTs := make([]rdf.Triple, 0, len(ins))
	insKeys := make([][3]uint64, 0, len(ins))
	staged := make(map[[3]uint64]struct{}, len(ins))
	for _, t := range ins {
		key := [3]uint64{st.encodeLocked(t.S), st.encodeLocked(t.P), st.encodeLocked(t.O)}
		_, deleted := gone[key]
		_, dup := staged[key]
		if _, live := st.rowLocked(key); dup || (live && !deleted) {
			continue
		}
		staged[key] = struct{}{}
		insTs = append(insTs, t)
		insKeys = append(insKeys, key)
	}
	if len(delKeys)+len(insKeys) == 0 {
		return 0, Commit{}, nil
	}
	var c Commit
	if st.journal != nil {
		var err error
		if c, err = st.journal.LogApply(delTs, insTs); err != nil {
			st.journalErr = err
			return 0, Commit{}, fmt.Errorf("%w: %w", ErrVetoed, err)
		}
	}
	st.version++
	for i, key := range delKeys {
		row := delRows[i]
		st.tombs[row] = struct{}{}
		if row >= int32(st.base.nRows()) {
			delete(st.dup, key)
		}
		if n := st.predRows[key[1]] - 1; n > 0 {
			st.predRows[key[1]] = n
		} else {
			delete(st.predRows, key[1])
		}
		st.tombLog = append(st.tombLog, row)
	}
	for i, key := range insKeys {
		st.dup[key] = int32(len(st.cols[0]))
		for c := range st.cols {
			st.cols[c] = append(st.cols[c], key[c])
		}
		st.predRows[key[1]]++
		// Cache the geometry of a spatial object neither the base nor an
		// earlier write has.
		if _, ok := st.geoms[key[2]]; !ok && insTs[i].O.IsSpatial() && !st.base.hasGeom(key[2]) {
			if v, err := strdf.ParseWGS84(insTs[i].O); err == nil {
				st.geoms[key[2]] = v
				st.geomLog = append(st.geomLog, key[2])
			}
		}
	}
	return len(delKeys) + len(insKeys), c, nil
}

// lookupLocked returns the id of t, or 0 when it has none. Callers hold
// mu.
func (st *Store) lookupLocked(t rdf.Term) uint64 {
	id, _ := lookupTerm(st.base, st.over, st.over.Len(), t)
	return id
}

// encodeLocked returns the id of t, giving it the next id after the
// base's and the terms since when it has none. Callers hold the write
// lock.
func (st *Store) encodeLocked(t rdf.Term) uint64 {
	if id, ok := st.base.lookup(t); ok {
		return id
	}
	return uint64(st.base.nTerms()) + st.over.Encode(t)
}

// rowLocked returns the live store row holding key, if any: an appended
// one from the duplicate set, a base one by probing the base (see
// packView.find). Callers hold mu.
func (st *Store) rowLocked(key [3]uint64) (int32, bool) {
	if k, ok := st.dup[key]; ok {
		return int32(st.base.nRows()) + k, true
	}
	row, ok := st.base.find(key)
	if _, removed := st.tombs[row]; !ok || removed {
		return 0, false
	}
	return row, true
}

// rebaseLocked installs base, fp's image, and renumbers what was
// written while it encoded — rows appended and removed, terms and
// geometries new since the fold was taken — as the delta over it. Row r
// of the old numbering that the fold kept becomes r minus the rows
// removed before it at the fold; term ids do not change. Callers hold the
// write lock.
func (st *Store) rebaseLocked(fp *foldPoint, base *packView) {
	removed := fp.in.removed
	renumber := func(row int32) int32 {
		i, _ := slices.BinarySearch(removed, row)
		return row - int32(i)
	}
	nBase := int32(base.nRows())
	var cols [3][]uint64
	for c := range cols {
		cols[c] = slices.Clone(st.cols[c][fp.rows:])
	}
	tombLog := make([]int32, 0, len(st.tombLog)-fp.tombMark)
	tombs := make(map[int32]struct{}, cap(tombLog))
	for _, row := range st.tombLog[fp.tombMark:] {
		row = renumber(row)
		tombLog = append(tombLog, row)
		tombs[row] = struct{}{}
	}
	dup := make(map[[3]uint64]int32, len(cols[0]))
	for k := range cols[0] {
		if _, gone := tombs[nBase+int32(k)]; !gone {
			dup[[3]uint64{cols[0][k], cols[1][k], cols[2][k]}] = int32(k)
		}
	}
	over := rdf.NewDictionary()
	for _, t := range st.over.Terms()[len(fp.in.over):] {
		over.Encode(t)
	}
	geomLog := slices.Clone(st.geomLog[fp.geomMark:])
	geoms := make(map[uint64]strdf.SpatialValue, len(geomLog))
	for _, id := range geomLog {
		geoms[id] = st.geoms[id]
	}
	st.base, st.over = base, over
	st.cols, st.dup, st.tombs, st.tombLog = cols, dup, tombs, tombLog
	st.geoms, st.geomLog = geoms, geomLog
	st.lag = st.changedLocked()
}

// await waits for a mutation's durability ticket; callers must NOT hold
// the store's locks (the whole point is that the fsync wait happens
// outside them). On success the applied-seq watermark advances to the
// ticket's sequence number. On failure the mutation is already applied
// in memory but was never made durable: the journal has latched itself
// broken (no later write can succeed either), so it is reported as a
// veto — the divergence ends at the next restart, whose recovery
// replays only what the log actually holds.
func (st *Store) await(c Commit) error {
	if err := c.Await(); err != nil {
		st.mu.Lock()
		st.journalErr = err
		st.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrVetoed, err)
	}
	if c.Seq != 0 {
		st.SetAppliedSeq(c.Seq)
	}
	return nil
}

// Add inserts a triple and reports whether it was new (and, with a
// journal, made durable): Apply with one insertion.
//
//lint:allow unreachable(test helper: the strabon, persist and replication tests, among others, insert one triple with it)
func (st *Store) Add(t rdf.Triple) bool {
	n, _ := st.Apply(nil, []rdf.Triple{t})
	return n == 1
}

// AddAll inserts a batch and reports how many triples were new: Apply
// with insertions only, so the batch is one journal record.
func (st *Store) AddAll(triples []rdf.Triple) int {
	n, _ := st.Apply(nil, triples)
	return n
}

// Remove deletes a triple and reports whether it was present: Apply
// with one deletion.
//
//lint:allow unreachable(test helper: the strabon, persist, replication and stsparql tests delete one triple with it)
func (st *Store) Remove(t rdf.Triple) bool {
	n, _ := st.Apply([]rdf.Triple{t}, nil)
	return n == 1
}

// SetJournal attaches (or with nil detaches) the write-ahead journal.
// Attach before the store is shared: the hook fires on every subsequent
// mutation, under the write lock.
func (st *Store) SetJournal(j Journal) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.journal = j
	st.journalErr = nil
}

// JournalErr reports the newest journal veto since the journal was
// attached (nil when every mutation was logged successfully). A non-nil
// value means writes have been rejected to preserve the WAL-before-state
// invariant; operators surface it via /stats. The write that was vetoed
// learns it from its own error (ErrVetoed).
func (st *Store) JournalErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.journalErr
}

// TriplePattern matches triples; zero IDs are wildcards.
type TriplePattern struct {
	S, P, O uint64
}

// Version reports a counter that increases on every mutation that
// changed something: one Apply or Update statement. Two equal Version
// observations bracket an interval in which the store's logical contents
// did not change. The stSPARQL endpoint's ETag and result cache key on a
// pinned view's Snapshot.Version with the applied seq View returns.
func (st *Store) Version() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.version
}

// AppliedSeq reports the WAL sequence number of the newest record whose
// mutation is visible in the store — the replication watermark. It is 0
// on stores without durability. Because it moves only after a mutation
// is installed, AppliedSeq() >= N guarantees the effects of record N are
// readable; and because the counter is the PRIMARY's sequence numbering,
// it is directly comparable between a primary and its replicas (unlike
// Version, whose increments depend on local history — e.g. a statement
// whose triples a snapshot restore already holds is a no-op).
func (st *Store) AppliedSeq() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.appliedSeq
}

// SetAppliedSeq advances the applied-seq watermark; persist recovery and
// replica replay call it after installing state up to seq. Regressions
// are ignored so the watermark stays monotone.
func (st *Store) SetAppliedSeq(seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seq > st.appliedSeq {
		st.appliedSeq = seq
	}
}

// Triples decodes all live triples, in row order, from the current
// Snapshot — so reading them leaves a mapped store mapped.
func (st *Store) Triples() []rdf.Triple {
	sn := st.Snapshot()
	rows := sn.MatchRows(TriplePattern{}, nil)
	out := make([]rdf.Triple, 0, len(rows))
	// Decode in chunks so the id and term scratch stays small.
	const chunk = 1024
	ids := make([]uint64, 0, 3*chunk)
	terms := make([]rdf.Term, 3*chunk)
	for len(rows) > 0 {
		n := min(chunk, len(rows))
		ids = ids[:0]
		for _, r := range rows[:n] {
			s, p, o := sn.Row(r)
			ids = append(ids, s, p, o)
		}
		sn.DecodeAll(ids, terms)
		for i := 0; i < 3*n; i += 3 {
			out = append(out, rdf.Triple{S: terms[i], P: terms[i+1], O: terms[i+2]})
		}
		rows = rows[n:]
	}
	return out
}

// Stats summarises the store for diagnostics and the optimizer.
type Stats struct {
	Triples         int
	Terms           int
	SpatialLiterals int
	Predicates      int
}

// Stats returns a snapshot of store statistics in O(1): the base's
// figures from its statistics section plus the delta's counters, so
// /stats polls neither scan nor decode.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Triples:         st.lenLocked(),
		Terms:           st.base.nTerms() + st.over.Len(),
		SpatialLiterals: st.base.r.NGeoms() + len(st.geoms),
		Predicates:      len(st.predRows),
	}
}

// LoadNTriples bulk-loads an N-Triples stream into the store.
func (st *Store) LoadNTriples(r io.Reader) (int, error) {
	triples, err := rdf.ParseNTriples(r)
	if err != nil {
		return 0, err
	}
	// Chunked so that a journalled bulk load produces bounded WAL records
	// (the log enforces a per-record size cap) instead of one giant
	// record per file. A journal veto aborts the load with the underlying
	// error rather than silently dropping the rest.
	const chunk = 65536
	n := 0
	for off := 0; off < len(triples); off += chunk {
		added, err := st.Apply(nil, triples[off:min(off+chunk, len(triples))])
		n += added
		if err != nil {
			return n, fmt.Errorf("strabon: bulk load aborted: %w", err)
		}
	}
	return n, nil
}

// ErrNotFound is returned by lookups of unknown terms.
var ErrNotFound = fmt.Errorf("strabon: term not found")

// LookupID returns the dictionary id for a term.
//
//lint:allow unreachable(test helper: the strabon and persist tests resolve a term id with it)
func (st *Store) LookupID(t rdf.Term) (uint64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if id := st.lookupLocked(t); id != 0 {
		return id, nil
	}
	return 0, ErrNotFound
}

// StorageMode reports what the store's base is: "mapped" while it is the
// packed snapshot file the store was restored from, served in place —
// also with writes in its delta — and "image" once a fold has replaced
// it with an image built in memory (and from the start for a store
// built by NewStore).
func (st *Store) StorageMode() string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.base.file {
		return "mapped"
	}
	return "image"
}

// ResidentEstimate approximates the heap bytes the store's primary
// state pins: the base's decode caches populated so far (its columns,
// postings and dictionary stay in the image), its term index, and the
// delta's columns and new terms. The duplicate set and the views'
// indexes are excluded — the figure is a like-for-like comparison of
// primary state, not total RSS.
func (st *Store) ResidentEstimate() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.base.cachedHeapBytes() + int64(len(st.cols[0]))*24 + st.over.EstimateBytes()
}
