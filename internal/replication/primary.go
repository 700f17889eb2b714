// Package replication turns the single-node TELEIOS engine into a
// horizontally scalable serving tier: one writable primary ships its
// write-ahead log over HTTP to any number of read-only replicas, and a
// thin consistent-hash router spreads read queries across them.
//
// The design leans entirely on the existing persistence layer
// (internal/persist): a replica bootstraps by downloading the primary's
// newest binary snapshot, then tails the live WAL — each shipped record
// is applied to the replica's store and appended verbatim to the
// replica's own WAL, so a restarted replica resumes from its local
// snapshot+log without re-bootstrapping, exactly like a restarted
// primary. Sequence numbers are assigned once, by the primary, and mean
// the same thing everywhere; the applied-seq watermark they induce
// (strabon.Store.AppliedSeq) is what read-your-writes routing, replica
// lag reporting and result-cache keying are built on.
//
// Wire protocol (all under /replication/v1/, all GET):
//
//	/snapshot            newest binary snapshot, verbatim
//	                     (Teleios-Snapshot-Seq header; 404 before the
//	                     first checkpoint)
//	/segments            JSON: WAL segment list, last seq, snapshot seq
//	/tail?from=N&wait=D  records with seq > N in the segment-file
//	                     encoding; long-polls up to D (capped) when the
//	                     log has nothing newer, returning an empty body
//	                     on timeout (Teleios-Primary-Seq carries the
//	                     newest seq either way)
package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/persist"
)

// Version headers shared by the replication protocol, the endpoint and
// the router.
const (
	// HeaderAppliedSeq carries a server's applied-seq watermark on
	// /sparql responses: for updates, the seq the write was journalled
	// under (the client's read-your-writes token); for reads, the
	// watermark the result reflects.
	HeaderAppliedSeq = "Teleios-Applied-Seq"
	// HeaderMinVersion carries a client's read-your-writes demand: the
	// response must reflect WAL records through at least this sequence
	// number, or fail with 503 rather than serve a stale read.
	HeaderMinVersion = "Teleios-Min-Version"
	// HeaderPrimarySeq reports the primary's newest WAL seq on tail
	// responses so replicas can report their own lag.
	HeaderPrimarySeq = "Teleios-Primary-Seq"
	// HeaderSnapshotSeq reports which WAL seq a shipped snapshot covers.
	HeaderSnapshotSeq = "Teleios-Snapshot-Seq"
)

const (
	// DefaultLongPoll caps how long /tail parks a caught-up replica.
	DefaultLongPoll = 25 * time.Second
	// DefaultBatchBytes caps one /tail response body, so a far-behind
	// replica catches up in bounded chunks instead of one giant reply.
	DefaultBatchBytes = 4 << 20
)

// Primary serves a persist.Manager's WAL and snapshots to replicas. It
// adds no new process: the handlers mount into the existing
// teleios-server mux. The manager is swappable (atomically) so a test —
// or a supervisor restarting the durability layer — can replace it
// without tearing down the HTTP server.
type Primary struct {
	mgr atomic.Pointer[persist.Manager]
	// LongPoll caps the ?wait= long-poll duration (default
	// DefaultLongPoll); BatchBytes caps one tail response's record bytes
	// (default DefaultBatchBytes).
	LongPoll   time.Duration
	BatchBytes int64

	tailRequests     atomic.Uint64
	recordsShipped   atomic.Uint64
	snapshotsServed  atomic.Uint64
	trimmedResponses atomic.Uint64
}

// NewPrimary wraps a manager for serving.
func NewPrimary(m *persist.Manager) *Primary {
	p := &Primary{}
	p.mgr.Store(m)
	return p
}

// Register mounts the replication handlers on mux.
func (p *Primary) Register(mux *http.ServeMux) {
	mux.HandleFunc("/replication/v1/snapshot", p.handleSnapshot)
	mux.HandleFunc("/replication/v1/segments", p.handleSegments)
	mux.HandleFunc("/replication/v1/tail", p.handleTail)
}

// PrimaryStats is the shipping telemetry block for /stats.
type PrimaryStats struct {
	LastSeq          uint64 `json:"last_seq"`
	SnapshotSeq      uint64 `json:"snapshot_seq"`
	TailRequests     uint64 `json:"tail_requests"`
	RecordsShipped   uint64 `json:"records_shipped"`
	SnapshotsServed  uint64 `json:"snapshots_served"`
	TrimmedResponses uint64 `json:"trimmed_responses"`
}

// Stats reports shipping counters.
func (p *Primary) Stats() PrimaryStats {
	m := p.mgr.Load()
	s := PrimaryStats{
		TailRequests:     p.tailRequests.Load(),
		RecordsShipped:   p.recordsShipped.Load(),
		SnapshotsServed:  p.snapshotsServed.Load(),
		TrimmedResponses: p.trimmedResponses.Load(),
	}
	if m != nil {
		s.LastSeq = m.LastSeq()
		s.SnapshotSeq = m.SnapshotSeq()
	}
	return s
}

func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	m := p.mgr.Load()
	if m == nil {
		http.Error(w, "replication is not enabled (no data dir)", http.StatusServiceUnavailable)
		return
	}
	path, seq, ok := m.NewestSnapshot()
	if !ok {
		// No checkpoint yet: the replica bootstraps empty and replays
		// the WAL from seq 0 instead.
		http.Error(w, "no snapshot yet; tail from 0", http.StatusNotFound)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "snapshot vanished; retry", http.StatusServiceUnavailable)
		return
	}
	// The open fd keeps serving even if a checkpoint prunes this
	// generation mid-transfer.
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.Header().Set(HeaderSnapshotSeq, strconv.FormatUint(seq, 10))
	w.Header().Set(HeaderPrimarySeq, strconv.FormatUint(m.LastSeq(), 10))
	p.snapshotsServed.Add(1)
	io.Copy(w, f)
}

func (p *Primary) handleSegments(w http.ResponseWriter, r *http.Request) {
	m := p.mgr.Load()
	if m == nil {
		http.Error(w, "replication is not enabled (no data dir)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	segs := m.Segments()
	fmt.Fprintf(w, `{"last_seq":%d,"snapshot_seq":%d,"segments":[`, m.LastSeq(), m.SnapshotSeq())
	for i, s := range segs {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, `{"first_seq":%d,"size":%d}`, s.FirstSeq, s.Size)
	}
	io.WriteString(w, "]}\n")
}

func (p *Primary) handleTail(w http.ResponseWriter, r *http.Request) {
	m := p.mgr.Load()
	if m == nil {
		http.Error(w, "replication is not enabled (no data dir)", http.StatusServiceUnavailable)
		return
	}
	p.tailRequests.Add(1)
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		http.Error(w, "bad 'from' parameter", http.StatusBadRequest)
		return
	}
	maxPoll := p.LongPoll
	if maxPoll <= 0 {
		maxPoll = DefaultLongPoll
	}
	wait := maxPoll
	if ws := q.Get("wait"); ws != "" {
		if d, err := time.ParseDuration(ws); err == nil && d >= 0 && d < wait {
			wait = d
		}
	}
	batch := p.BatchBytes
	if batch <= 0 {
		batch = DefaultBatchBytes
	}

	// Park until the log outgrows the cursor (or the poll expires); a
	// dropped client cancels the wait via the request context.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	last := m.WaitSeq(ctx, from)
	w.Header().Set("Content-Type", "application/x-teleios-wal")
	w.Header().Set(HeaderPrimarySeq, strconv.FormatUint(m.LastSeq(), 10))
	if last <= from {
		w.WriteHeader(http.StatusOK) // long-poll timeout: empty batch
		return
	}

	// Stream the records. The status line must be decided before the
	// first body byte, so probe the error cases (trimmed log) by
	// delaying WriteHeader until the first record arrives.
	var buf []byte
	wrote := false
	_, err = m.ReadWAL(from, batch, func(seq uint64, op byte, body []byte) error {
		buf = persist.AppendRecord(buf[:0], seq, op, body)
		if ferr := faults.Eval("primary/tail-serve"); ferr != nil {
			if allow, ok := faults.AsTorn(ferr); ok && allow < len(buf) {
				// Ship the torn record fragment a primary dying mid-send
				// would, then cut the stream.
				if !wrote {
					wrote = true
					w.WriteHeader(http.StatusOK)
				}
				w.Write(buf[:allow])
			}
			return ferr
		}
		if !wrote {
			wrote = true
			w.WriteHeader(http.StatusOK)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		p.recordsShipped.Add(1)
		return nil
	})
	if err != nil && !wrote {
		if err == persist.ErrWALTrimmed {
			p.trimmedResponses.Add(1)
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !wrote {
		w.WriteHeader(http.StatusOK)
	}
}
