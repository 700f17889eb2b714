package endpoint

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/rdf"
	"repro/internal/replication"
	"repro/internal/strdf"
)

// The streaming bulk-ingest front door. POST /ingest accepts an
// N-Triples stream of any length (chunked transfer encoding welcome)
// and loads it through the store in pipelined chunks: a decoder
// goroutine parses lines and pre-warms the spatial-literal intern cache
// while the handler applies the previous chunk, so WKT parsing — the
// expensive part of ingesting stRDF observations — runs off the store
// lock. Each chunk commits through one Store.Apply, i.e. one journal
// record riding the group committer; concurrent ingest streams, SPARQL
// updates and the background fsync all share batches, which is what
// lets a continuous observation feed (the NOA fire-monitoring profile)
// sustain acked-durable throughput.
//
// Consistency contract: a chunk, not the stream, is the unit of
// atomicity. Each chunk is one Apply: readers see all of it or none of
// it, and it replays entirely or not at all. Other writers — SPARQL
// updates, other streams — may land between two chunks, and a
// concurrent read may observe a prefix of an in-flight stream; bulk
// feeds that need the whole load to appear at once should use SPARQL
// INSERT DATA.
//
// The response reports {"received", "added", "batches"} — added <
// received means duplicates were deduplicated, not lost — plus the
// Teleios-Applied-Seq read-your-writes watermark.

// defaultIngestMaxChunk bounds triples per chunk when
// Config.IngestMaxChunk is unset: big enough to amortise the store
// lock and journal record overhead, small enough to keep the decode
// pipeline's memory footprint and per-chunk latency modest.
const defaultIngestMaxChunk = 8192

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "ingest requires POST", http.StatusMethodNotAllowed)
		return
	}
	if ok, retry := s.adm.admitClient(r); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "rate limit exceeded for this client; slow down", http.StatusTooManyRequests)
		return
	}
	if s.cfg.ReadOnly {
		msg := s.cfg.ReadOnlyMessage
		if msg == "" {
			msg = "endpoint is read-only"
		}
		http.Error(w, msg, http.StatusForbidden)
		return
	}
	if s.cfg.Store == nil {
		http.Error(w, "ingest requires a store-backed endpoint", http.StatusServiceUnavailable)
		return
	}
	if jerr := s.degradedErr(); jerr != nil {
		s.adm.degradedDenials.Add(1)
		w.Header().Set("Retry-After", "60")
		http.Error(w, fmt.Sprintf(
			"endpoint is in degraded read-only mode: the write-ahead journal failed (%v); "+
				"reads continue to be served, writes are refused until the data directory recovers and the server restarts", jerr),
			http.StatusServiceUnavailable)
		return
	}

	chunkSize := s.cfg.IngestMaxChunk
	if chunkSize <= 0 {
		chunkSize = defaultIngestMaxChunk
	}

	// The decode half of the pipeline. It owns the request body; the
	// handler below applies chunks as they arrive, so chunk N+1 parses
	// while chunk N commits. done lets the handler abandon the stream
	// (veto, broken WAL) without leaking the goroutine mid-send.
	type chunk struct {
		triples []rdf.Triple
		lines   int
	}
	chunks := make(chan chunk, 2)
	done := make(chan struct{})
	// On early exit (journal veto) the decoder may be mid-parse or
	// parked on a send; it must not outlive this handler, because it
	// reads r.Body, which net/http reclaims when we return. LIFO defers:
	// close(done) unparks it, then the drain loop waits for it to close
	// chunks on its way out.
	defer func() {
		for range chunks {
		}
	}()
	defer close(done)
	var decErr error // owned by the decoder; read only after chunks closes
	go func() {
		defer close(chunks)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		lineNo := 0
		batch := make([]rdf.Triple, 0, chunkSize)
		batchLines := 0
		send := func() bool {
			select {
			case chunks <- chunk{triples: batch, lines: batchLines}:
				batch = make([]rdf.Triple, 0, chunkSize)
				batchLines = 0
				return true
			case <-done:
				return false
			}
		}
		for sc.Scan() {
			lineNo++
			if ferr := faults.Eval("endpoint/ingest-read"); ferr != nil {
				decErr = fmt.Errorf("reading ingest stream at line %d: %w", lineNo, ferr)
				return
			}
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			t, err := rdf.ParseTripleLine(line)
			if err != nil {
				decErr = fmt.Errorf("line %d: %v", lineNo, err)
				return
			}
			if t.O.IsSpatial() {
				// Pre-warm the WKT intern cache so the store's add path
				// (under its write lock) finds the geometry already
				// parsed. A malformed literal is not an ingest error —
				// the store simply indexes it without a geometry, same
				// as every other load path.
				strdf.ParseSpatial(t.O)
			}
			batch = append(batch, t)
			batchLines++
			if len(batch) >= chunkSize {
				if !send() {
					return
				}
			}
		}
		if err := sc.Err(); err != nil {
			decErr = fmt.Errorf("reading ingest stream at line %d: %v", lineNo, err)
			return
		}
		if len(batch) > 0 {
			send()
		}
	}()

	var received, added, batches int
	for c := range chunks {
		received += len(c.triples)
		n, err := s.cfg.Store.Apply(nil, c.triples)
		if err != nil {
			// The journal refused the chunk: nothing from it is durable.
			// Chunks before it are; re-sending the whole stream is safe
			// (insertion is a set operation) once the cause clears.
			http.Error(w, fmt.Sprintf(
				"ingest rejected by the write-ahead journal after %d triples (%d committed chunks): %v",
				added, batches, err),
				http.StatusInternalServerError)
			return
		}
		added += n
		batches++
	}
	if decErr != nil {
		http.Error(w, fmt.Sprintf(
			"ingest aborted after %d triples (%d committed chunks): %v",
			added, batches, decErr),
			http.StatusBadRequest)
		return
	}
	w.Header().Set(replication.HeaderAppliedSeq, strconv.FormatUint(s.cfg.Store.AppliedSeq(), 10))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"received\":%d,\"added\":%d,\"batches\":%d}\n", received, added, batches)
}
