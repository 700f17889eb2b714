// Package strabon implements the Strabon geospatial RDF store of the
// paper: triples dictionary-encoded into three parallel integer columns
// (the MonetDB layout under the real Strabon).
//
// The package has one write side and one read side. Store is the write
// side: it keeps the columns, the dictionary, a duplicate set, the
// ingest-time geometry cache and the write-ahead journal hook — only what
// a mutation needs. Every read goes through Snapshot, an immutable view
// of one store version with posting lists per component, an R-tree over
// the spatial literals and per-predicate statistics for the stSPARQL
// optimizer. A store restored from a packed snapshot file (RestorePacked)
// serves its views straight from the mapped file and copies it to the
// heap only on its first write.
package strabon

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"

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
	LogCompact() (Commit, error)
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
	// writeMu serialises mutations (Apply, Update, Compact). Update holds
	// it while it reads the view its statement is computed from, so no
	// other write lands between that read and its apply; mu is held only
	// for the apply itself, so readers wait for installs, never for an
	// Update's read.
	writeMu sync.Mutex
	mu      sync.RWMutex
	dict    *rdf.Dictionary
	// The three dictionary-encoded columns. Row i holds triple i; deleted
	// rows are tombstoned with 0 and dropped by Compact.
	s, p, o []uint64
	// present is the triple set for duplicate suppression and Remove:
	// packed spo -> row.
	present map[[3]uint64]int
	// predRows counts the live rows of each predicate, so that
	// Stats().Predicates is len(predRows) rather than a scan.
	predRows map[uint64]int
	deleted  int
	// geoms caches the WGS84 geometry of every spatial literal parsed at
	// ingest; views index it, Compact prunes it.
	geoms map[uint64]strdf.SpatialValue
	// version counts successful mutations; readers (e.g. the endpoint's
	// result cache) use it to detect staleness cheaply.
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
	// fold is the full build later views layer their delta on (nil: the
	// next view is a full build). tombLog and geomLog record, as writes
	// happen, the store rows tombstoned since the last Compact and the
	// geometries cached since fold was taken, so a delta build never
	// scans for them. epoch moves when rows are renumbered, so that a
	// full build taken before cannot become fold after.
	snap    *Snapshot
	fold    *foldPoint
	tombLog []int
	geomLog []uint64
	epoch   uint64
	// building is the in-flight view build stale readers wait on (single
	// flight, see Store.Snapshot); the counters feed ViewCounters.
	building                            atomic.Pointer[viewBuild]
	fullBuilds, deltaBuilds, buildWaits atomic.Uint64
	deltaRows                           atomic.Int64
	// packed, set by RestorePacked, means the store's state lives ONLY
	// in a mapped packed snapshot: the dictionary is empty and the
	// columns are nil. Reads are answered in place through the cached
	// mapped Snapshot (snap); the first mutation materialises via
	// materializeLocked, which decodes the file into the fields above
	// and clears packed. The mapping itself stays alive for the
	// snapshot's lifetime.
	packed *packView
	// journal, when set, is notified ahead of every mutation (see
	// Journal). journalErr latches the newest veto for diagnostics.
	journal    Journal
	journalErr error
}

// NewStore returns an empty store.
func NewStore() *Store {
	// Maps are presized for a small catalogue so the first few thousand
	// inserts do not spend their time rehashing.
	return &Store{
		dict:     rdf.NewDictionary(),
		present:  make(map[[3]uint64]int, 512),
		predRows: make(map[uint64]int, 32),
		geoms:    make(map[uint64]strdf.SpatialValue, 64),
	}
}

// materializeLocked decodes a packed store's mapped state into the
// heap representation the write side needs (columns, dictionary,
// geometries, the duplicate set and the predicate counts); mutations
// call it first, holding the write lock. The store version does NOT
// move: materialisation changes the representation, not the logical
// contents, so the cached mapped snapshot stays valid and keeps serving
// readers until a real mutation invalidates it. A decode failure here
// is unreachable for a file that passed Open's full verification, so it
// panics rather than threading an error through every mutation path.
func (st *Store) materializeLocked() {
	if st.packed == nil {
		return
	}
	pv := st.packed
	st.packed = nil
	if err := pv.materializeInto(st); err != nil {
		panic(fmt.Sprintf("strabon: materialising packed snapshot: %v", err))
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
	if st.packed != nil {
		return st.packed.nRows()
	}
	return len(st.s) - st.deleted
}

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
// Encoding an insertion may grow the dictionary even when the triple is
// then dropped as a duplicate or vetoed — that is harmless: dictionary
// ids only become observable through stored triples.
func (st *Store) applyLocked(dels, ins []rdf.Triple) (int, Commit, error) {
	st.materializeLocked() // the lookups below need the heap dictionary
	var delTs []rdf.Triple
	var delKeys [][3]uint64
	var gone map[[3]uint64]struct{}
	for _, t := range dels {
		// An unknown term looks up as id 0, which no stored row carries.
		sID, _ := st.dict.Lookup(t.S)
		pID, _ := st.dict.Lookup(t.P)
		oID, _ := st.dict.Lookup(t.O)
		key := [3]uint64{sID, pID, oID}
		_, live := st.present[key]
		if _, dup := gone[key]; !live || dup {
			continue
		}
		if gone == nil {
			gone = make(map[[3]uint64]struct{}, len(dels))
		}
		gone[key] = struct{}{}
		delTs = append(delTs, t)
		delKeys = append(delKeys, key)
	}
	insTs := make([]rdf.Triple, 0, len(ins))
	insKeys := make([][3]uint64, 0, len(ins))
	staged := make(map[[3]uint64]struct{}, len(ins))
	for _, t := range ins {
		key := [3]uint64{st.dict.Encode(t.S), st.dict.Encode(t.P), st.dict.Encode(t.O)}
		_, live := st.present[key]
		_, deleted := gone[key]
		_, dup := staged[key]
		if (live && !deleted) || dup {
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
	for _, key := range delKeys {
		row := st.present[key]
		delete(st.present, key)
		st.s[row], st.p[row], st.o[row] = 0, 0, 0
		if n := st.predRows[key[1]] - 1; n > 0 {
			st.predRows[key[1]] = n
		} else {
			delete(st.predRows, key[1])
		}
		st.deleted++
		st.tombLog = append(st.tombLog, row)
	}
	for i, key := range insKeys {
		st.present[key] = len(st.s)
		st.s = append(st.s, key[0])
		st.p = append(st.p, key[1])
		st.o = append(st.o, key[2])
		st.predRows[key[1]]++
		if o := insTs[i].O; o.IsSpatial() {
			if _, cached := st.geoms[key[2]]; !cached {
				if v, err := strdf.ParseSpatial(o); err == nil {
					if w, err := v.ToWGS84(); err == nil {
						v = w
					}
					st.geoms[key[2]] = v
					st.geomLog = append(st.geomLog, key[2])
				}
			}
		}
	}
	return len(delKeys) + len(insKeys), c, nil
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
// changed something (one Apply or Update statement, a Compact). Two equal Version observations bracket an interval in
// which the store's logical contents did not change, which is what the
// stSPARQL endpoint's result cache keys on.
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
// Version, whose increments depend on local history — e.g. a replayed
// Compact that is a no-op on an already-compacted snapshot restore).
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

// Stats returns a snapshot of store statistics in O(1): a mapped store
// reads them from the file's statistics section, a heap store from its
// counters, so /stats polls neither scan nor materialise.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		s := st.packed.stats
		return Stats{
			Triples:         s.Triples,
			Terms:           st.packed.nTerms(),
			SpatialLiterals: s.Geoms,
			Predicates:      s.DistinctP,
		}
	}
	return Stats{
		Triples:         len(st.s) - st.deleted,
		Terms:           st.dict.Len(),
		SpatialLiterals: len(st.geoms),
		Predicates:      len(st.predRows),
	}
}

// Compact rewrites the triple columns without tombstones, renumbering
// the duplicate set, and drops the cached geometries no live triple
// refers to. Long-running stores call this after heavy DELETE workloads
// (the refinement rewrites every coastal hotspot's geometry). It
// reports the number of tombstones reclaimed (0 when the journal
// vetoed it).
func (st *Store) Compact() int {
	st.writeMu.Lock()
	st.mu.Lock()
	n, c, err := st.compactLocked()
	st.mu.Unlock()
	st.writeMu.Unlock()
	if err != nil || st.await(c) != nil {
		return 0
	}
	return n
}

// compactLocked is Compact's body; callers hold writeMu and mu.
func (st *Store) compactLocked() (int, Commit, error) {
	if st.deleted == 0 {
		return 0, Commit{}, nil
	}
	var c Commit
	if st.journal != nil {
		var err error
		if c, err = st.journal.LogCompact(); err != nil {
			st.journalErr = err
			return 0, Commit{}, err
		}
	}
	// Row numbering and the spatial side change; cached views and their
	// base must not outlive them, and an in-flight build must not install
	// a pre-compaction base (epoch). The next view is a full build. (A
	// no-op compaction above changes nothing, so it leaves all of this
	// alone.)
	st.snap = nil
	st.fold = nil
	st.tombLog, st.geomLog = nil, nil
	st.epoch++
	st.version++
	reclaimed := st.deleted
	n := len(st.s) - st.deleted
	s := make([]uint64, 0, n)
	p := make([]uint64, 0, n)
	o := make([]uint64, 0, n)
	present := make(map[[3]uint64]int, n)
	// Remove leaves geometries behind; the ones a live object still
	// refers to are collected here, the rest dropped below.
	liveGeoms := make(map[uint64]struct{}, len(st.geoms))
	for row := range st.s {
		if st.s[row] == 0 {
			continue
		}
		present[[3]uint64{st.s[row], st.p[row], st.o[row]}] = len(s)
		s = append(s, st.s[row])
		p = append(p, st.p[row])
		o = append(o, st.o[row])
		if _, ok := st.geoms[st.o[row]]; ok {
			liveGeoms[st.o[row]] = struct{}{}
		}
	}
	st.s, st.p, st.o = s, p, o
	st.present = present
	st.deleted = 0
	maps.DeleteFunc(st.geoms, func(id uint64, _ strdf.SpatialValue) bool {
		_, live := liveGeoms[id]
		return !live
	})
	return reclaimed, c, nil
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
func (st *Store) LookupID(t rdf.Term) (uint64, error) {
	st.mu.RLock()
	if st.packed != nil {
		defer st.mu.RUnlock()
		if id, ok := st.packed.lookup(t); ok {
			return id, nil
		}
		return 0, ErrNotFound
	}
	st.mu.RUnlock()
	id, ok := st.dict.Lookup(t)
	if !ok {
		return 0, ErrNotFound
	}
	return id, nil
}

// StorageMode reports where the store's state currently lives:
// "mapped" while reads are answered in place from a packed snapshot
// file, "heap" once materialised (or for stores built by ingest).
func (st *Store) StorageMode() string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		return "mapped"
	}
	return "heap"
}

// ResidentEstimate approximates the heap bytes the store's primary
// state pins: for a mapped store, just the decode caches populated so
// far (the columns, postings and dictionary stay on the mapping); for
// a heap store, the columns plus dictionary estimate. The duplicate set
// and the views' indexes are excluded — the figure is a like-for-like
// comparison of primary state, not total RSS.
func (st *Store) ResidentEstimate() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		return st.packed.cachedHeapBytes()
	}
	return int64(len(st.s))*24 + st.dict.EstimateBytes()
}
