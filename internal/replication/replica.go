package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/fsx"
	"repro/internal/persist"
	"repro/internal/resilience"
	"repro/internal/strabon"
)

// ReplicaOptions configures OpenReplica. Zero values select the
// documented defaults.
type ReplicaOptions struct {
	// Primary is the primary's base URL (e.g. http://db0:8080). Required.
	Primary string
	// Dir is the replica's own durable data directory. Required: it is
	// what lets a SIGKILLed replica restart from local state instead of
	// re-downloading the dataset.
	Dir string
	// SyncMode is the local WAL fsync policy (default SyncNone: the
	// primary is the durability authority, the local log is a catch-up
	// cache — anything it loses is re-shipped).
	SyncMode persist.SyncMode
	// HasSyncMode marks SyncMode as deliberately set (SyncAlways is the
	// zero value, but replicas default to SyncNone).
	HasSyncMode bool
	// CheckpointBytes / CheckpointEvery bound the local WAL exactly as
	// on a primary (defaults: persist's own).
	CheckpointBytes int64
	CheckpointEvery time.Duration
	// NoCheckpointOnClose skips the final checkpoint in Close (tests use
	// it to force WAL-replay resume paths).
	NoCheckpointOnClose bool
	// PollWait is the long-poll duration requested from /tail (default
	// DefaultLongPoll).
	PollWait time.Duration
	// RetryMin/RetryMax bound the reconnect backoff after a failed or
	// torn tail stream (defaults 100ms / 5s).
	RetryMin, RetryMax time.Duration
	// Client is the HTTP client for snapshot and tail requests (default:
	// a client with no overall timeout — tail responses are long-polls).
	Client *http.Client
	// Logf receives replication diagnostics (default: discard).
	Logf func(format string, args ...any)
}

func (o *ReplicaOptions) withDefaults() (ReplicaOptions, error) {
	opts := *o
	if opts.Primary == "" {
		return opts, errors.New("replication: ReplicaOptions.Primary is required")
	}
	if opts.Dir == "" {
		return opts, errors.New("replication: ReplicaOptions.Dir is required")
	}
	if !opts.HasSyncMode {
		opts.SyncMode = persist.SyncNone
	}
	if opts.PollWait <= 0 {
		opts.PollWait = DefaultLongPoll
	}
	if opts.RetryMin <= 0 {
		opts.RetryMin = 100 * time.Millisecond
	}
	if opts.RetryMax < opts.RetryMin {
		opts.RetryMax = 5 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return opts, nil
}

// Replica tails a primary's WAL into its own store and data directory.
// The store it exposes is read-only from the application's point of
// view (the endpoint enforces 403 on updates); the only writer is the
// tail loop.
type Replica struct {
	opts ReplicaOptions
	// state bundles the manager and store so a re-bootstrap (which
	// replaces both) swaps them in one atomic publish: readers — query
	// serving, /stats, watermark polls — either see the old pair or the
	// new pair, never a torn mix, and never race the tail loop's swap.
	state atomic.Pointer[replicaState]

	cancel context.CancelFunc
	wg     sync.WaitGroup

	primarySeq    atomic.Uint64 // newest seq the primary reported
	lastContactMs atomic.Int64  // unix ms of the last successful primary response
	records       atomic.Uint64 // records applied since open
	reconnects    atomic.Uint64
	tornDrops     atomic.Uint64 // torn stream fragments discarded
	bootstrapped  atomic.Bool   // this open downloaded a snapshot
	rebootstraps  atomic.Uint64 // 410-triggered full re-bootstraps
	lastErr       atomic.Pointer[string]

	closeOnce sync.Once
	closeErr  error
}

// OpenReplica boots a replica. If dir already holds persisted state the
// replica resumes from it — recovery replays the local snapshot+WAL
// exactly as on a primary, and tailing continues from the local last
// sequence number; nothing is re-downloaded. A fresh directory is
// bootstrapped from the primary's newest snapshot (or empty, plus a
// full WAL tail, if the primary has never checkpointed).
func OpenReplica(o ReplicaOptions) (*Replica, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	r := &Replica{opts: opts}
	if err := r.open(context.Background()); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.wg.Add(1)
	go r.tailLoop(ctx)
	return r, nil
}

// open bootstraps (if needed) and recovers the local data directory.
func (r *Replica) open(ctx context.Context) error {
	has, err := persist.HasState(r.opts.Dir)
	if err != nil {
		return err
	}
	if !has {
		if err := r.bootstrap(ctx); err != nil {
			return fmt.Errorf("replication: bootstrap from %s: %w", r.opts.Primary, err)
		}
	}
	mgr, st, err := persist.Open(persist.Options{
		Dir:                 r.opts.Dir,
		SyncMode:            r.opts.SyncMode,
		CheckpointBytes:     r.opts.CheckpointBytes,
		CheckpointEvery:     r.opts.CheckpointEvery,
		NoCheckpointOnClose: r.opts.NoCheckpointOnClose,
		NoJournal:           true, // records arrive pre-assigned; see ApplyReplicated
		Logf:                r.opts.Logf,
	})
	if err != nil {
		return err
	}
	r.state.Store(&replicaState{mgr: mgr, st: st})
	return nil
}

// replicaState is the manager/store pair published by open().
type replicaState struct {
	mgr *persist.Manager
	st  *strabon.Store
}

// bootstrap downloads the primary's newest snapshot into the (empty)
// local directory. A 404 means the primary has never checkpointed; the
// replica then starts empty and replays the full WAL via the tail.
// Transient fetch failures retry with jittered backoff before giving
// up: bootstrap runs at process start and after a 410, both moments
// when the primary may be briefly unreachable.
func (r *Replica) bootstrap(ctx context.Context) error {
	if err := os.MkdirAll(r.opts.Dir, 0o755); err != nil {
		return err
	}
	bo := resilience.Backoff{Min: r.opts.RetryMin, Max: r.opts.RetryMax, Jitter: 0.5}
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(bo.Delay(attempt - 1)):
			}
		}
		if err = r.fetchSnapshot(ctx); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		r.opts.Logf("replication: snapshot fetch attempt %d: %v", attempt+1, err)
	}
	return err
}

// fetchSnapshot performs one snapshot download, verify included.
func (r *Replica) fetchSnapshot(ctx context.Context) error {
	if err := faults.Eval("replica/fetch-snapshot"); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.Primary+"/replication/v1/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		r.opts.Logf("replication: primary has no snapshot yet; starting empty and tailing from 0")
		return nil
	default:
		return fmt.Errorf("snapshot fetch: %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot fetch: bad %s header: %w", HeaderSnapshotSeq, err)
	}
	path := filepath.Join(r.opts.Dir, persist.SnapshotFileName(seq))
	if err := fsx.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}); err != nil {
		return err
	}
	// Trust nothing that crossed the network unverified: the snapshot
	// carries a whole-file CRC, check it before recovery would.
	if _, err := persist.VerifySnapshot(path); err != nil {
		os.Remove(path)
		return err
	}
	r.bootstrapped.Store(true)
	r.opts.Logf("replication: bootstrapped from snapshot seq %d (%s)", seq, filepath.Base(path))
	return nil
}

// tailLoop streams records from the primary until Close. Errors —
// connection drops, torn records, primary restarts — back off and
// reconnect from the local WAL position; a 410 (the primary pruned past
// our cursor) wipes the directory and re-bootstraps.
func (r *Replica) tailLoop(ctx context.Context) {
	defer r.wg.Done()
	// Jittered backoff: when a primary restarts under a fleet of
	// replicas, pure exponential delays would reconnect them all in
	// lockstep; the jitter spreads the stampede.
	bo := resilience.Backoff{Min: r.opts.RetryMin, Max: r.opts.RetryMax, Jitter: 0.5}
	attempt := 0
	for ctx.Err() == nil {
		applied, err := r.tailOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		switch {
		case err == nil:
			attempt = 0
			continue // long-poll pacing happens server-side
		case errors.Is(err, errRebootstrap):
			r.opts.Logf("replication: primary pruned past our cursor; re-bootstrapping")
			if rbErr := r.rebootstrap(ctx); rbErr != nil {
				r.setErr(rbErr)
				r.opts.Logf("replication: re-bootstrap failed: %v", rbErr)
			} else {
				r.rebootstraps.Add(1)
				attempt = 0
				continue
			}
		default:
			r.setErr(err)
			r.reconnects.Add(1)
			if applied > 0 {
				attempt = 0 // progress was made; retry promptly
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(bo.Delay(attempt)):
		}
		attempt++
	}
}

// errRebootstrap signals a 410 from /tail.
var errRebootstrap = errors.New("replication: tail returned 410 Gone")

// tailOnce runs one /tail request and applies every validated record,
// returning how many were applied. A torn trailing record (the primary
// died mid-send) is counted, discarded, and NOT treated as an error for
// backoff purposes beyond the reconnect itself: everything before it
// was applied, so the next request resumes exactly past the last good
// record.
func (r *Replica) tailOnce(ctx context.Context) (int, error) {
	if err := faults.Eval("replica/tail"); err != nil {
		return 0, err
	}
	mgr := r.state.Load().mgr
	from := mgr.LastSeq()
	url := fmt.Sprintf("%s/replication/v1/tail?from=%d&wait=%s", r.opts.Primary, from, r.opts.PollWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return 0, errRebootstrap
	default:
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("tail: %s", resp.Status)
	}
	r.lastContactMs.Store(time.Now().UnixMilli())
	if ps, err := strconv.ParseUint(resp.Header.Get(HeaderPrimarySeq), 10, 64); err == nil {
		r.primarySeq.Store(ps)
	}
	applied := 0
	sc := persist.NewRecordScanner(resp.Body, from)
	for {
		seq, op, body, err := sc.Next()
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return applied, nil // clean batch end
		case errors.Is(err, persist.ErrTornRecord):
			// The stream died mid-record (SIGKILLed primary, dropped
			// connection). The fragment is discarded — nothing of it was
			// applied or logged — and the next request's from= cursor
			// re-fetches the whole record.
			r.tornDrops.Add(1)
			return applied, fmt.Errorf("replication: tail stream torn after seq %d; reconnecting", mgr.LastSeq())
		default:
			return applied, err
		}
		if err := mgr.ApplyReplicated(seq, op, body); err != nil {
			return applied, err
		}
		applied++
		r.records.Add(1)
	}
}

// rebootstrap discards the local directory and bootstraps afresh — the
// recovery path for a replica so far behind that the primary's WAL no
// longer reaches its cursor.
func (r *Replica) rebootstrap(ctx context.Context) error {
	old := r.state.Load().mgr
	if err := old.Close(); err != nil {
		r.opts.Logf("replication: closing stale manager: %v", err)
	}
	if err := os.RemoveAll(r.opts.Dir); err != nil {
		return err
	}
	return r.open(ctx)
}

func (r *Replica) setErr(err error) {
	s := err.Error()
	r.lastErr.Store(&s)
}

// Store exposes the replica's store for query serving. The caller must
// treat it as read-only. A 410-triggered re-bootstrap publishes a NEW
// store object (the old one keeps answering but freezes at its last
// watermark); long-lived embedders should re-resolve Store() when
// Stats().Rebootstraps moves, or watch the applied-seq stall via the
// router's lag view.
func (r *Replica) Store() *strabon.Store { return r.state.Load().st }

// Manager exposes the replica's persistence layer (for /stats and for
// chaining: a replica can itself serve /replication/v1 to downstreams).
func (r *Replica) Manager() *persist.Manager { return r.state.Load().mgr }

// AppliedSeq reports the newest primary-assigned sequence number whose
// mutation is visible in the replica's store.
func (r *Replica) AppliedSeq() uint64 { return r.state.Load().st.AppliedSeq() }

// ReplicaStats is the replica telemetry block for /stats.
type ReplicaStats struct {
	Primary        string `json:"primary"`
	AppliedSeq     uint64 `json:"applied_seq"`
	PrimarySeq     uint64 `json:"primary_seq"`
	Lag            uint64 `json:"lag"`
	RecordsApplied uint64 `json:"records_applied"`
	Reconnects     uint64 `json:"reconnects"`
	TornDrops      uint64 `json:"torn_drops"`
	Bootstrapped   bool   `json:"bootstrapped"`
	Rebootstraps   uint64 `json:"rebootstraps"`
	LastContactMs  int64  `json:"last_contact_unix_ms,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// Stats reports tailing telemetry.
func (r *Replica) Stats() ReplicaStats {
	s := ReplicaStats{
		Primary:        r.opts.Primary,
		AppliedSeq:     r.AppliedSeq(),
		PrimarySeq:     r.primarySeq.Load(),
		RecordsApplied: r.records.Load(),
		Reconnects:     r.reconnects.Load(),
		TornDrops:      r.tornDrops.Load(),
		Bootstrapped:   r.bootstrapped.Load(),
		Rebootstraps:   r.rebootstraps.Load(),
		LastContactMs:  r.lastContactMs.Load(),
	}
	if s.PrimarySeq > s.AppliedSeq {
		s.Lag = s.PrimarySeq - s.AppliedSeq
	}
	if e := r.lastErr.Load(); e != nil {
		s.LastError = *e
	}
	return s
}

// Close stops the tail loop and closes the local persistence layer
// (checkpointing per options, so a graceful restart boots from the
// snapshot instead of a long replay).
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		r.cancel()
		r.wg.Wait()
		r.closeErr = r.state.Load().mgr.Close()
	})
	return r.closeErr
}
