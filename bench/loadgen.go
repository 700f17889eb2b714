package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Client is the load generator's HTTP side: one transport capped at a
// fixed number of connections to the one server.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client that holds at most conns connections.
func NewClient(base string, conns int) *Client {
	return &Client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// Close drops the client's idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Do sends one generated request and reads the whole response into buf.
func (c *Client) Do(r *Request, buf *bytes.Buffer) (status int, err error) {
	if r.Class != ClassInsert {
		return c.Get(r.Path, buf)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/sparql", strings.NewReader(r.Text))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	return c.roundTrip(req, buf)
}

// Get fetches a path of the server, e.g. a read query's.
func (c *Client) Get(path string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	return c.roundTrip(req, buf)
}

// Post sends a body, e.g. an N-Triples archive to /ingest.
func (c *Client) Post(path, contentType string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.roundTrip(req, buf)
}

func (c *Client) roundTrip(req *http.Request, buf *bytes.Buffer) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// Op is one operation of a request stream: the request and, for reads,
// its index in the verifier's pool.
type Op struct {
	Req   *Request
	Index int
}

// Checker validates a response and returns the rows it carried. It is
// called from the connection's goroutine, after the latency clock has
// stopped.
type Checker func(conn int, op Op, status int, body []byte) (rows int, err error)

// Sample is one completed operation.
type Sample struct {
	Class Class
	OK    bool
	Due   time.Duration // open loop: scheduled offset from the start of the run
	Nanos int64         // latency; open loop: from the due time
	Lag   int64         // how late the generator itself sent it (see RunOpen, RunClosed)
}

// LoopResult is what a driven loop observed.
type LoopResult struct {
	Samples []Sample
	Elapsed time.Duration
	Errors  []string
}

const keptErrors = 5

type connLog struct {
	samples []Sample
	errs    []string
}

func (l *connLog) record(s Sample, err error) {
	if err != nil {
		s.OK = false
		if len(l.errs) < keptErrors {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", s.Class, err))
		}
	}
	l.samples = append(l.samples, s)
}

func merge(logs []connLog, elapsed time.Duration) *LoopResult {
	res := &LoopResult{Elapsed: elapsed}
	for i := range logs {
		res.Samples = append(res.Samples, logs[i].samples...)
		for _, e := range logs[i].errs {
			if len(res.Errors) < keptErrors {
				res.Errors = append(res.Errors, e)
			}
		}
	}
	return res
}

// RunClosed drives a closed loop: each of conns clients sends its next
// operation only after the previous one has completed, until dur has
// passed. next is called from every client's goroutine. A sample's Lag
// is the client's own think time before it: checking the previous
// response and drawing the next request, which is load the generator
// failed to offer.
func RunClosed(c *Client, conns int, dur time.Duration, next func() Op, check Checker) *LoopResult {
	logs := make([]connLog, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			var buf bytes.Buffer
			free := time.Now()
			for free.Before(deadline) {
				op := next()
				t0 := time.Now()
				status, err := c.Do(op.Req, &buf)
				end := time.Now()
				s := Sample{Class: op.Req.Class, OK: true, Nanos: int64(end.Sub(t0)), Lag: int64(t0.Sub(free))}
				if err == nil {
					_, err = check(conn, op, status, buf.Bytes())
				}
				logs[conn].record(s, err)
				free = end
			}
		}(conn)
	}
	wg.Wait()
	return merge(logs, time.Since(start))
}

// Event is one scheduled operation of an open loop.
type Event struct {
	Due    time.Duration
	Stream int // index of the RateStream it came from
	Op     Op
}

// RunOpen drives an open loop: events are sent at their due times
// whatever the server does. Each stream has a connection of its own
// (stream i uses connection i mod conns), the way an instrument fleet and
// a catalogue user are different clients: a stream's requests leave in
// order, one at a time, and wait for one another only within the stream.
// Latency runs from the due time, so a stall charges every request it
// delays; Lag is only the part the generator caused, i.e. how long after
// both the due time and the connection becoming free the request
// actually left.
func RunOpen(c *Client, conns int, events []Event, check Checker) *LoopResult {
	logs := make([]connLog, conns)
	lanes := make([][]Event, conns)
	for _, ev := range events {
		lanes[ev.Stream%conns] = append(lanes[ev.Stream%conns], ev)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for conn := 0; conn < conns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			var buf bytes.Buffer
			for _, ev := range lanes[conn] {
				due := start.Add(ev.Due)
				ready := time.Now()
				if ready.Before(due) {
					waitUntil(due)
					ready = due
				}
				sent := time.Now()
				status, err := c.Do(ev.Op.Req, &buf)
				s := Sample{Class: ev.Op.Req.Class, OK: true, Due: ev.Due,
					Nanos: int64(time.Since(due)), Lag: int64(sent.Sub(ready))}
				if err == nil {
					_, err = check(conn, ev.Op, status, buf.Bytes())
				}
				logs[conn].record(s, err)
			}
		}(conn)
	}
	wg.Wait()
	return merge(logs, time.Since(start))
}

// spinBefore is how long before a due time the generator stops sleeping
// and spins: an idle Go process wakes from a timer up to a millisecond
// late (its poller sleeps in whole milliseconds), which is a third of a
// window read's latency and differs from one due time to the next.
const spinBefore = 2 * time.Millisecond

// waitUntil returns at t, to within microseconds.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinBefore; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// RateStream is one fixed-rate component of an open-loop schedule. Its
// events arrive Burst at a time (0 or 1: one at a time), the bursts
// spaced so that the mean rate is PerSecond and the events of a burst
// due Spacing apart.
type RateStream struct {
	PerSecond float64
	Burst     int
	Spacing   time.Duration
	Offset    time.Duration // due time of the first event
	Next      func() Op
}

// Schedule merges fixed-rate streams into one due-time-ordered event
// list covering dur.
func Schedule(dur time.Duration, streams ...RateStream) []Event {
	var events []Event
	for n, s := range streams {
		burst := max(s.Burst, 1)
		step := time.Duration(float64(burst) * float64(time.Second) / s.PerSecond)
		for i := 0; s.Offset+time.Duration(i/burst)*step < dur; i++ {
			due := s.Offset + time.Duration(i/burst)*step + time.Duration(i%burst)*s.Spacing
			events = append(events, Event{Due: due, Stream: n, Op: s.Next()})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Due < events[j].Due })
	return events
}

// Latencies returns the ascending latencies, in milliseconds, of the
// successful samples keep selects.
func Latencies(samples []Sample, keep func(*Sample) bool) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.OK && keep(s) {
			out = append(out, float64(s.Nanos)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func isRead(s *Sample) bool  { return s.Class != ClassInsert }
func isWrite(s *Sample) bool { return s.Class == ClassInsert }
