package replication

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
	"repro/internal/strabon"
	"repro/internal/stsparql"
)

// testPrimary is an in-process primary: a durable store plus the
// replication handlers on an httptest server. The mux wrapper counts
// snapshot fetches so chaos tests can prove a restarted replica did NOT
// re-bootstrap.
type testPrimary struct {
	t    *testing.T
	dir  string
	mgr  *persist.Manager
	st   *strabon.Store
	prim *Primary
	ts   *httptest.Server

	snapshotFetches atomic.Uint64
	tailResponses   atomic.Uint64
}

func newTestPrimary(t *testing.T) *testPrimary {
	t.Helper()
	tp := &testPrimary{t: t, dir: t.TempDir()}
	tp.open()
	mux := http.NewServeMux()
	tp.prim.Register(mux)
	tp.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/replication/v1/snapshot":
			tp.snapshotFetches.Add(1)
		case "/replication/v1/tail":
			tp.tailResponses.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		tp.ts.Close()
		tp.mgr.Close()
	})
	return tp
}

// open (re)opens the durable layer on tp.dir, pointing the Primary at
// the fresh manager. Calling it after crash() models a primary restart
// behind a long-lived listener.
func (tp *testPrimary) open() {
	tp.t.Helper()
	mgr, st, err := persist.Open(persist.Options{
		Dir:                 tp.dir,
		SyncMode:            persist.SyncNone,
		NoCheckpointOnClose: true,
	})
	if err != nil {
		tp.t.Fatal(err)
	}
	tp.mgr, tp.st = mgr, st
	if tp.prim == nil {
		tp.prim = NewPrimary(mgr)
		tp.prim.LongPoll = 250 * time.Millisecond
	} else {
		tp.prim.mgr.Store(mgr)
	}
}

// crash closes the durability layer without a final checkpoint — the
// nearest in-process stand-in for SIGKILL: recovery must come from the
// snapshot + WAL already on disk.
func (tp *testPrimary) crash() {
	tp.t.Helper()
	if err := tp.mgr.Close(); err != nil {
		tp.t.Fatal(err)
	}
}

// waitApplied blocks until fn (a watermark getter) reaches at least
// seq, failing the test after a generous deadline.
func waitApplied(t *testing.T, fn func() uint64, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if fn() >= seq {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("watermark stuck at %d, want >= %d", fn(), seq)
}

// orderedRows renders a result's bindings as canonical strings in
// result order — the bit-identical comparison used by the equivalence
// suites (row order included).
func orderedRows(res *stsparql.Result) []string {
	out := make([]string, 0, len(res.Bindings))
	for _, b := range res.Bindings {
		keys := make([]string, 0, len(b))
		for k := range b {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s|", k, b[k].String())
		}
		out = append(out, sb.String())
	}
	return out
}

// newReplica opens a replica of tp in its own temp dir with fast retry
// settings, cleaning it up with the test.
func newReplica(t *testing.T, tp *testPrimary, dir string) *Replica {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	rep, err := OpenReplica(ReplicaOptions{
		Primary:             tp.ts.URL,
		Dir:                 dir,
		PollWait:            250 * time.Millisecond,
		RetryMin:            5 * time.Millisecond,
		RetryMax:            100 * time.Millisecond,
		NoCheckpointOnClose: true,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}
