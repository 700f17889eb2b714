// Package strabon implements the Strabon geospatial RDF store of the
// paper: triples dictionary-encoded into three parallel integer columns
// (the MonetDB layout under the real Strabon), secondary hash indexes on
// each component, per-predicate statistics for the stSPARQL optimizer, and
// an R-tree over the spatial literals for spatial filter pushdown.
package strabon

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/column"
	"repro/internal/geo"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/strdf"
)

// Journal receives write-ahead notifications for every mutation, invoked
// while the store's write lock is held and strictly before the in-memory
// structures change. An implementation (internal/persist) encodes a log
// record, assigns it the next WAL sequence number, and returns a Commit
// ticket; a non-nil error vetoes the mutation synchronously — nothing
// was applied, nothing was logged — and is reported to the caller as
// "nothing changed" (Add returns false, AddAll returns 0, ...) and
// recorded for JournalErr. LogAdd only ever sees triples that are
// genuinely new (duplicates are filtered first), so replaying the
// journal rebuilds the dictionary with identical id assignment.
//
// Sequence assignment is deliberately split from the durability wait:
// the Log* hooks run under the store's write lock and must only do the
// fast part (encode, assign, enqueue). The caller applies the mutation,
// releases the lock, and THEN awaits the ticket — so K concurrent
// writers can share one group fsync instead of paying K fsyncs in
// series under the lock. A ticket failure after the mutation applied
// means the journal has latched broken (see Commit); the caller records
// it as a veto and reports failure.
//
// The ticket's sequence number becomes the store's applied-seq
// watermark (AppliedSeq) once the record is durable: the watermark
// moves only AFTER both the state change is visible and the record is
// on stable storage, so a reader that observes AppliedSeq() >= N is
// guaranteed to see the effects of WAL record N.
type Journal interface {
	LogAdd(triples []rdf.Triple) (Commit, error)
	LogRemove(t rdf.Triple) (Commit, error)
	LogCompact() (Commit, error)
}

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

// Store is the triple store. Reads are safe concurrently; writes take the
// exclusive lock.
type Store struct {
	mu   sync.RWMutex
	dict *rdf.Dictionary
	// The three dictionary-encoded columns. Row i holds triple i; deleted
	// rows are tombstoned with 0 and compacted on Snapshot.
	s, p, o []uint64
	// Component indexes: term id -> row positions.
	byS, byP, byO map[uint64][]int
	// triple set for duplicate suppression: key = packed spo.
	present map[[3]uint64]int
	deleted int
	// Spatial side: geometry cache and R-tree over spatial literal ids.
	// The tree is built lazily: ingest only records geometries and marks
	// the tree stale, and the first spatial lookup STR-bulk-loads it —
	// pure ingest workloads (the Figure 1 pipeline) never pay for
	// incremental quadratic-split inserts.
	geoms        map[uint64]strdf.SpatialValue
	spatial      *rtree.Tree
	spatialStale bool
	// postArena is the slab fresh posting lists are carved from, so a
	// bulk load of mostly-new terms does not allocate per term.
	postArena []int
	// useSpatialIndex can be disabled for the A1 ablation.
	useSpatialIndex bool
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
	// lazyIdx is set by RestoreColumns: the component posting lists and
	// the present map have not been built yet and must be materialised
	// (ensureIdx) before the first mutation or index-driven read.
	lazyIdx bool
	// packed, set by RestorePacked, means the store's state lives ONLY
	// in a mapped packed snapshot: the dictionary is empty and the
	// columns are nil. Reads are answered in place through the cached
	// mapped Snapshot (snap); the first mutation — or any path that
	// needs the heap representation — materialises via
	// materializeLocked, which decodes the file into the fields above
	// and clears packed. The mapping itself stays alive for the
	// snapshot's lifetime.
	packed *packView
	// journal, when set, is notified ahead of every mutation (see
	// Journal). journalErr latches the newest veto for diagnostics;
	// journalVetoes counts them so callers can detect that a specific
	// operation was vetoed (the error value may repeat).
	journal       Journal
	journalErr    error
	journalVetoes uint64
	// logScratch is the single-triple batch handed to LogAdd from Add so
	// the hot path does not allocate per insert.
	logScratch [1]rdf.Triple
}

// NewStore returns an empty store with the spatial index enabled.
func NewStore() *Store {
	// Index maps are presized for a small catalogue so the first few
	// thousand inserts do not spend their time rehashing.
	return &Store{
		dict:            rdf.NewDictionary(),
		byS:             make(map[uint64][]int, 256),
		byP:             make(map[uint64][]int, 32),
		byO:             make(map[uint64][]int, 256),
		present:         make(map[[3]uint64]int, 512),
		geoms:           make(map[uint64]strdf.SpatialValue, 64),
		spatial:         rtree.NewTree(0),
		useSpatialIndex: true,
	}
}

// newPosting carves a fresh single-row posting list from the shared
// arena; lists that outgrow the carved capacity migrate to ordinary
// append growth.
func (st *Store) newPosting(row int) []int {
	const chunk = 4
	if len(st.postArena)+chunk > cap(st.postArena) {
		st.postArena = make([]int, 0, 8192)
	}
	n := len(st.postArena)
	p := st.postArena[n : n : n+chunk]
	st.postArena = st.postArena[:n+chunk]
	return append(p, row)
}

// appendPosting extends a posting list, routing new lists to the arena.
func (st *Store) appendPosting(rows []int, row int) []int {
	if rows == nil {
		return st.newPosting(row)
	}
	return append(rows, row)
}

// materializeLocked decodes a packed store's mapped state into the
// heap representation (columns, dictionary, geometries) and leaves the
// secondary indexes deferred behind lazyIdx; callers hold the write
// lock. The store version does NOT move: materialisation changes the
// representation, not the logical contents, so the cached mapped
// snapshot stays valid and keeps serving readers until a real mutation
// invalidates it. A decode failure here is unreachable for a file that
// passed Open's full verification, so it panics rather than threading
// an error through every mutation path.
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

// ensureMaterialized is materializeLocked for read paths that need the
// heap representation (lock not held): double-checked read-to-write
// upgrade, same shape as ensureIdx.
func (st *Store) ensureMaterialized() {
	st.mu.RLock()
	mapped := st.packed != nil
	st.mu.RUnlock()
	if !mapped {
		return
	}
	st.mu.Lock()
	st.materializeLocked()
	st.mu.Unlock()
}

// buildIndexesLocked materialises the deferred secondary structures of
// a RestoreColumns store; callers hold the write lock.
func (st *Store) buildIndexesLocked() {
	st.materializeLocked()
	if !st.lazyIdx {
		return
	}
	st.lazyIdx = false
	n := len(st.s)
	st.present = make(map[[3]uint64]int, n)
	st.byS = make(map[uint64][]int, n/4+16)
	st.byP = make(map[uint64][]int, 64)
	st.byO = make(map[uint64][]int, n/4+16)
	for row := 0; row < n; row++ {
		if st.s[row] == 0 {
			continue
		}
		st.present[[3]uint64{st.s[row], st.p[row], st.o[row]}] = row
		st.byS[st.s[row]] = st.appendPosting(st.byS[st.s[row]], row)
		st.byP[st.p[row]] = st.appendPosting(st.byP[st.p[row]], row)
		st.byO[st.o[row]] = st.appendPosting(st.byO[st.o[row]], row)
	}
}

// ensureIdx materialises the deferred indexes from a read path (lock
// not held): double-checked read-to-write upgrade, same shape as the
// lazy R-tree build in SpatialCandidates.
func (st *Store) ensureIdx() {
	st.mu.RLock()
	lazy := st.lazyIdx || st.packed != nil
	st.mu.RUnlock()
	if !lazy {
		return
	}
	st.mu.Lock()
	st.buildIndexesLocked()
	st.mu.Unlock()
}

// SetSpatialIndexEnabled toggles R-tree use in spatial lookups (the A1
// ablation baseline scans all spatial literals when disabled).
func (st *Store) SetSpatialIndexEnabled(on bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	// A mapped store's lookups always search the file's R-tree; decode to
	// heap so that store-level lookups honour the setting. (Views over a
	// mapped base keep searching its R-tree until the next fold.)
	st.materializeLocked()
	st.useSpatialIndex = on
	// Views capture the setting: move the version so the next Snapshot
	// builds one with it and an in-flight build cannot install one
	// without.
	st.version++
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

// Dict exposes the term dictionary. On a packed store the dictionary
// lives front-coded in the mapped snapshot, so this materialises the
// heap representation first — query paths should go through the
// Snapshot's Lookup/DecodeTerm accessors instead, which work in place.
func (st *Store) Dict() *rdf.Dictionary {
	st.ensureMaterialized()
	return st.dict
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

// Add inserts a triple; duplicates are ignored. It reports whether the
// triple was new. With a journal attached the mutation is enqueued and
// applied under the write lock, but the durability wait happens after
// the lock is released (see Journal), so concurrent writers share group
// commits instead of serialising their fsyncs.
func (st *Store) Add(t rdf.Triple) bool {
	locked := true
	st.mu.Lock()
	defer func() {
		if locked {
			st.mu.Unlock()
		}
	}()
	st.buildIndexesLocked()
	ok, c := st.addLocked(t)
	if !ok {
		return false
	}
	locked = false
	st.mu.Unlock()
	return st.finishCommit(c)
}

// addLocked is Add's body; callers hold the write lock. Batch ingest
// (AddAll, LoadNTriples) takes the lock once per batch instead of once per
// triple. The returned Commit must be awaited (finishCommit) once the
// lock is released; a false return means nothing changed and there is
// nothing to await.
func (st *Store) addLocked(t rdf.Triple) (bool, Commit) {
	key, isNew := st.stageAdd(t)
	if !isNew {
		return false, Commit{}
	}
	var c Commit
	if st.journal != nil {
		st.logScratch[0] = t
		var err error
		if c, err = st.journal.LogAdd(st.logScratch[:]); err != nil {
			st.journalErr = err
			st.journalVetoes++
			return false, Commit{}
		}
	}
	st.applyAdd(t, key)
	return true, c
}

// finishCommit awaits a mutation's durability ticket; callers must NOT
// hold the store lock (the whole point is that the fsync wait happens
// outside it). On success the applied-seq watermark advances to the
// ticket's sequence number. On failure the mutation is already applied
// in memory but was never made durable: the journal has latched itself
// broken (no later write can succeed either), so this is recorded as a
// veto and reported as failure — the divergence ends at the next
// restart, whose recovery replays only what the log actually holds.
func (st *Store) finishCommit(c Commit) bool {
	if err := c.Await(); err != nil {
		st.mu.Lock()
		st.journalErr = err
		st.journalVetoes++
		st.mu.Unlock()
		return false
	}
	if c.Seq != 0 {
		st.SetAppliedSeq(c.Seq)
	}
	return true
}

// stageAdd encodes a triple's terms and reports whether it is new.
// Encoding may grow the dictionary even for triples that are then
// rejected as duplicates or vetoed by the journal — that is harmless:
// dictionary ids only become observable through stored triples, and
// journal replay re-encodes the same new triples in the same order.
func (st *Store) stageAdd(t rdf.Triple) (key [3]uint64, isNew bool) {
	key = [3]uint64{st.dict.Encode(t.S), st.dict.Encode(t.P), st.dict.Encode(t.O)}
	_, dup := st.present[key]
	return key, !dup
}

// applyAdd installs a staged triple; callers hold the write lock and have
// already journalled it.
func (st *Store) applyAdd(t rdf.Triple, key [3]uint64) {
	sID, pID, oID := key[0], key[1], key[2]
	st.version++
	row := len(st.s)
	st.s = append(st.s, sID)
	st.p = append(st.p, pID)
	st.o = append(st.o, oID)
	st.present[key] = row
	st.byS[sID] = st.appendPosting(st.byS[sID], row)
	st.byP[pID] = st.appendPosting(st.byP[pID], row)
	st.byO[oID] = st.appendPosting(st.byO[oID], row)
	if t.O.IsSpatial() {
		if _, cached := st.geoms[oID]; !cached {
			if v, err := strdf.ParseSpatial(t.O); err == nil {
				if w, err := v.ToWGS84(); err == nil {
					v = w
				}
				st.geoms[oID] = v
				st.geomLog = append(st.geomLog, oID)
				st.spatialStale = true
			}
		}
	}
}

// rebuildSpatialLocked STR-bulk-loads the R-tree from the geometry
// cache; callers hold the write lock.
func (st *Store) rebuildSpatialLocked() {
	items := make([]rtree.Item, 0, len(st.geoms))
	for id, v := range st.geoms {
		items = append(items, rtree.Item{Box: v.Geom.Envelope(), ID: id})
	}
	st.spatial = rtree.BulkLoad(items, 0)
	st.spatialStale = false
}

// AddAll inserts a batch of triples under one write lock and reports how
// many were new. With a journal attached the whole batch becomes one WAL
// record: the new triples are staged and deduplicated first, logged
// together, and only then applied, so a crash can never leave a batch
// half-durable.
func (st *Store) AddAll(triples []rdf.Triple) int {
	locked := true
	st.mu.Lock()
	defer func() {
		if locked {
			st.mu.Unlock()
		}
	}()
	st.buildIndexesLocked()
	if st.journal == nil {
		n := 0
		for _, t := range triples {
			if ok, _ := st.addLocked(t); ok {
				n++
			}
		}
		return n
	}
	fresh := make([]rdf.Triple, 0, len(triples))
	keys := make([][3]uint64, 0, len(triples))
	staged := make(map[[3]uint64]struct{}, len(triples))
	for _, t := range triples {
		key, isNew := st.stageAdd(t)
		if !isNew {
			continue
		}
		if _, dup := staged[key]; dup {
			continue
		}
		staged[key] = struct{}{}
		fresh = append(fresh, t)
		keys = append(keys, key)
	}
	if len(fresh) == 0 {
		return 0
	}
	c, err := st.journal.LogAdd(fresh)
	if err != nil {
		st.journalErr = err
		st.journalVetoes++
		return 0
	}
	for i, t := range fresh {
		st.applyAdd(t, keys[i])
	}
	locked = false
	st.mu.Unlock()
	if !st.finishCommit(c) {
		return 0
	}
	return len(fresh)
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

// JournalErr reports the first journal veto since the journal was
// attached (nil when every mutation was logged successfully). A non-nil
// value means writes are being rejected to preserve the WAL-before-state
// invariant; operators surface it via /stats.
func (st *Store) JournalErr() error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.journalErr
}

// JournalVetoes counts journal-vetoed mutations since the journal was
// attached. Comparing the counter across an operation detects whether
// that specific operation was vetoed, which the error value alone
// cannot (it may repeat).
func (st *Store) JournalVetoes() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.journalVetoes
}

// Remove deletes a triple; it reports whether it was present.
func (st *Store) Remove(t rdf.Triple) bool {
	st.ensureMaterialized() // the lookups below need the heap dictionary
	sID, ok := st.dict.Lookup(t.S)
	if !ok {
		return false
	}
	pID, ok := st.dict.Lookup(t.P)
	if !ok {
		return false
	}
	oID, ok := st.dict.Lookup(t.O)
	if !ok {
		return false
	}
	locked := true
	st.mu.Lock()
	defer func() {
		if locked {
			st.mu.Unlock()
		}
	}()
	st.buildIndexesLocked()
	key := [3]uint64{sID, pID, oID}
	row, ok := st.present[key]
	if !ok {
		return false
	}
	var c Commit
	if st.journal != nil {
		var err error
		if c, err = st.journal.LogRemove(t); err != nil {
			st.journalErr = err
			st.journalVetoes++
			return false
		}
	}
	delete(st.present, key)
	st.version++
	st.s[row], st.p[row], st.o[row] = 0, 0, 0
	st.byS[sID] = removePos(st.byS[sID], row)
	st.byP[pID] = removePos(st.byP[pID], row)
	st.byO[oID] = removePos(st.byO[oID], row)
	st.deleted++
	st.tombLog = append(st.tombLog, row)
	locked = false
	st.mu.Unlock()
	return st.finishCommit(c)
}

// removePos deletes row from a posting list. Posting lists are always
// sorted ascending (rows are appended in insertion order and Compact
// renumbers ascending), so the position is found by binary search.
func removePos(rows []int, row int) []int {
	i := sort.SearchInts(rows, row)
	if i >= len(rows) || rows[i] != row {
		return rows
	}
	return append(rows[:i], rows[i+1:]...)
}

// TriplePattern matches triples; zero IDs are wildcards.
type TriplePattern struct {
	S, P, O uint64
}

// MatchIDs returns the row positions matching the pattern, using the most
// selective available component index.
func (st *Store) MatchIDs(pat TriplePattern) []int {
	st.ensureIdx()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.matchLocked(pat)
}

func (st *Store) matchLocked(pat TriplePattern) []int {
	// Pick the smallest index among the bound components.
	var candidate []int
	candSet := false
	consider := func(idx map[uint64][]int, id uint64) {
		if id == 0 {
			return
		}
		rows := idx[id]
		if !candSet || len(rows) < len(candidate) {
			candidate = rows
			candSet = true
		}
	}
	consider(st.byS, pat.S)
	consider(st.byP, pat.P)
	consider(st.byO, pat.O)
	if !candSet {
		// Full scan.
		out := make([]int, 0, len(st.s)-st.deleted)
		for row := range st.s {
			if st.s[row] != 0 {
				out = append(out, row)
			}
		}
		return out
	}
	var out []int
	for _, row := range candidate {
		if pat.S != 0 && st.s[row] != pat.S {
			continue
		}
		if pat.P != 0 && st.p[row] != pat.P {
			continue
		}
		if pat.O != 0 && st.o[row] != pat.O {
			continue
		}
		out = append(out, row)
	}
	return out
}

// Row returns the (s, p, o) ids of row.
func (st *Store) Row(row int) (uint64, uint64, uint64) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		return st.packed.row(int32(row))
	}
	return st.s[row], st.p[row], st.o[row]
}

// Cardinality estimates the number of matches for a pattern without
// materialising them — the optimizer's selectivity source.
func (st *Store) Cardinality(pat TriplePattern) int {
	st.mu.RLock()
	if st.packed != nil {
		defer st.mu.RUnlock()
		return st.packed.cardinality(pat)
	}
	st.mu.RUnlock()
	st.ensureIdx()
	st.mu.RLock()
	defer st.mu.RUnlock()
	est := len(st.s) - st.deleted
	if pat.S != 0 {
		if n := len(st.byS[pat.S]); n < est {
			est = n
		}
	}
	if pat.P != 0 {
		if n := len(st.byP[pat.P]); n < est {
			est = n
		}
	}
	if pat.O != 0 {
		if n := len(st.byO[pat.O]); n < est {
			est = n
		}
	}
	return est
}

// Version reports a counter that increases on every successful mutation
// (Add, Remove, Compact, index toggles). Two equal Version observations bracket an interval in
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

// Geometry returns the cached WGS84 geometry for a spatial literal id.
func (st *Store) Geometry(id uint64) (strdf.SpatialValue, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		return st.packed.geometry(id)
	}
	v, ok := st.geoms[id]
	return v, ok
}

// SpatialCandidates returns the ids of spatial literals whose envelope
// intersects the query box — via the R-tree when enabled, else by scanning
// every cached geometry (the ablation baseline).
func (st *Store) SpatialCandidates(box geo.Envelope) []uint64 {
	st.mu.RLock()
	if st.packed != nil {
		defer st.mu.RUnlock()
		return st.packed.spatialCandidates(box)
	}
	if st.useSpatialIndex && st.spatialStale {
		// Upgrade to the write lock and build the tree; double-check
		// staleness, another reader may have won the race.
		st.mu.RUnlock()
		st.mu.Lock()
		if st.spatialStale {
			st.rebuildSpatialLocked()
		}
		st.mu.Unlock()
		st.mu.RLock()
	}
	defer st.mu.RUnlock()
	if st.useSpatialIndex {
		return st.spatial.Search(box, nil)
	}
	var out []uint64
	for id, v := range st.geoms {
		if v.Geom.Envelope().Intersects(box) {
			out = append(out, id)
		}
	}
	return out
}

// Triples materialises all live triples (decoded), in row order.
func (st *Store) Triples() []rdf.Triple {
	st.ensureMaterialized()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.triplesLocked()
}

func (st *Store) triplesLocked() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(st.s)-st.deleted)
	for row := range st.s {
		if st.s[row] == 0 {
			continue
		}
		s, _ := st.dict.Decode(st.s[row])
		p, _ := st.dict.Decode(st.p[row])
		o, _ := st.dict.Decode(st.o[row])
		out = append(out, rdf.Triple{S: s, P: p, O: o})
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

// Stats returns a snapshot of store statistics. It deliberately does
// not materialise a restored store's deferred indexes: the predicate
// count is derived from a linear scan instead, so the startup banner
// and /stats polls don't defeat the lazy-restore fast boot.
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
	nPreds := 0
	if st.lazyIdx {
		seen := make(map[uint64]struct{}, 64)
		for _, id := range st.p {
			if id != 0 {
				seen[id] = struct{}{}
			}
		}
		nPreds = len(seen)
	} else {
		for _, rows := range st.byP {
			if len(rows) > 0 {
				nPreds++
			}
		}
	}
	return Stats{
		Triples:         len(st.s) - st.deleted,
		Terms:           st.dict.Len(),
		SpatialLiterals: len(st.geoms),
		Predicates:      nPreds,
	}
}

// AsTable materialises the live triples as a three-column relational
// table of dictionary ids — the MonetDB layout the paper's Strabon sits
// on, usable directly by the SciQL engine for mixed relational/RDF work.
func (st *Store) AsTable() *column.Table {
	st.ensureMaterialized()
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := len(st.s) - st.deleted
	s := make([]int64, 0, n)
	p := make([]int64, 0, n)
	o := make([]int64, 0, n)
	for row := range st.s {
		if st.s[row] == 0 {
			continue
		}
		s = append(s, int64(st.s[row]))
		p = append(p, int64(st.p[row]))
		o = append(o, int64(st.o[row]))
	}
	t := column.NewTable("triples",
		column.Field{Name: "s", Typ: column.Int64},
		column.Field{Name: "p", Typ: column.Int64},
		column.Field{Name: "o", Typ: column.Int64})
	t.Cols[0] = column.NewInt64(s)
	t.Cols[1] = column.NewInt64(p)
	t.Cols[2] = column.NewInt64(o)
	return t
}

// Compact rewrites the triple columns without tombstones and rebuilds the
// component indexes. Long-running stores call this after heavy DELETE
// workloads (the refinement rewrites every coastal hotspot's geometry).
// It reports the number of tombstones reclaimed.
func (st *Store) Compact() int {
	locked := true
	st.mu.Lock()
	defer func() {
		if locked {
			st.mu.Unlock()
		}
	}()
	if st.deleted == 0 {
		return 0
	}
	var c Commit
	if st.journal != nil {
		var err error
		if c, err = st.journal.LogCompact(); err != nil {
			st.journalErr = err
			st.journalVetoes++
			return 0
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
	byS := make(map[uint64][]int, len(st.byS))
	byP := make(map[uint64][]int, len(st.byP))
	byO := make(map[uint64][]int, len(st.byO))
	present := make(map[[3]uint64]int, n)
	for row := range st.s {
		if st.s[row] == 0 {
			continue
		}
		newRow := len(s)
		s = append(s, st.s[row])
		p = append(p, st.p[row])
		o = append(o, st.o[row])
		byS[st.s[row]] = append(byS[st.s[row]], newRow)
		byP[st.p[row]] = append(byP[st.p[row]], newRow)
		byO[st.o[row]] = append(byO[st.o[row]], newRow)
		present[[3]uint64{st.s[row], st.p[row], st.o[row]}] = newRow
	}
	st.s, st.p, st.o = s, p, o
	st.byS, st.byP, st.byO = byS, byP, byO
	st.present = present
	st.deleted = 0
	st.pruneSpatialLocked()
	locked = false
	st.mu.Unlock()
	if !st.finishCommit(c) {
		return 0
	}
	return reclaimed
}

// pruneSpatialLocked drops geometries whose literal id no longer appears in
// any live triple's object position and rebuilds the R-tree over the
// survivors. Remove tombstones rows but leaves geoms/R-tree entries behind;
// Compact is where they are reclaimed.
func (st *Store) pruneSpatialLocked() {
	stale := false
	for id := range st.geoms {
		if len(st.byO[id]) == 0 {
			delete(st.geoms, id)
			stale = true
		}
	}
	if !stale {
		return
	}
	st.rebuildSpatialLocked()
}

// LoadNTriples bulk-loads an N-Triples stream into the store.
func (st *Store) LoadNTriples(r io.Reader) (int, error) {
	triples, err := rdf.ParseNTriples(r)
	if err != nil {
		return 0, err
	}
	// Chunked AddAll so that a journalled bulk load produces bounded WAL
	// records (the log enforces a per-record size cap) instead of one
	// giant record per file. A journal veto aborts the load with the
	// underlying error rather than silently dropping the rest.
	const chunk = 65536
	n := 0
	for off := 0; off < len(triples); off += chunk {
		end := off + chunk
		if end > len(triples) {
			end = len(triples)
		}
		vetoes := st.JournalVetoes()
		n += st.AddAll(triples[off:end])
		if st.JournalVetoes() != vetoes {
			return n, fmt.Errorf("strabon: bulk load aborted: %w", st.JournalErr())
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
// a heap store, the columns plus dictionary estimate. Secondary
// indexes and posting lists are excluded in heap mode — the figure is
// a like-for-like comparison of primary state, not total RSS.
func (st *Store) ResidentEstimate() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.packed != nil {
		return st.packed.cachedHeapBytes()
	}
	return int64(len(st.s))*24 + st.dict.EstimateBytes()
}

// RestoreColumns rebuilds a store directly from a binary snapshot's
// already-encoded state: the dictionary, the three compacted id columns,
// and the ids of the spatial literals that had cached geometries. It is
// the fast deserialisation path used by internal/persist — no N-Triples
// parsing, no re-encoding; only the secondary indexes are rebuilt and
// the listed geometries re-parsed from their dictionary terms. version
// seeds the store's mutation counter so it stays monotone across a
// recovery.
func RestoreColumns(dict *rdf.Dictionary, s, p, o []uint64, geomIDs []uint64, version uint64) (*Store, error) {
	if len(s) != len(p) || len(s) != len(o) {
		return nil, fmt.Errorf("strabon: column length mismatch: s=%d p=%d o=%d", len(s), len(p), len(o))
	}
	st := NewStore()
	st.dict = dict
	st.version = version
	n := len(s)
	maxID := uint64(dict.Len())
	st.s, st.p, st.o = s, p, o
	// Validate the columns up front (cheap linear scan), but defer the
	// expensive secondary structures — the component posting lists and
	// the duplicate-suppression map — until something actually needs
	// them (lazyIdx). A restart that only serves vectorized read
	// queries goes straight from snapshot bytes to answering: the
	// executor's read view (Snapshot) builds its own indexes, so the
	// store-level ones matter only to mutations and the store-level
	// Match API. This mirrors the store's lazily built R-tree and is
	// what makes the binary restart path so much faster than the
	// N-Triples one.
	for row := 0; row < n; row++ {
		if s[row] == 0 || s[row] > maxID || p[row] == 0 || p[row] > maxID || o[row] == 0 || o[row] > maxID {
			return nil, fmt.Errorf("strabon: row %d references id outside dictionary (max %d)", row, maxID)
		}
	}
	st.lazyIdx = true
	for _, id := range geomIDs {
		t, ok := dict.Decode(id)
		if !ok {
			return nil, fmt.Errorf("strabon: geometry id %d not in dictionary", id)
		}
		v, err := strdf.ParseSpatial(t)
		if err != nil {
			// The snapshot only lists ids whose ingest-time parse
			// succeeded; a failure here means the snapshot and dictionary
			// disagree.
			return nil, fmt.Errorf("strabon: geometry id %d: %w", id, err)
		}
		if w, err := v.ToWGS84(); err == nil {
			v = w
		}
		st.geoms[id] = v
	}
	st.spatialStale = len(st.geoms) > 0
	return st, nil
}
