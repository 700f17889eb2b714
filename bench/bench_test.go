package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/strabon"
	"repro/internal/stsparql"
)

func TestPercentileAndSupportedTail(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(vs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	// "At least ten samples beyond it": 240 writes support p95 (12
	// beyond) but not p99 (2.4 beyond).
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {1000, 99}, {999, 95}, {240, 95}, {199, 90}, {100, 90}, {40, 75}, {39, 50}, {0, 50}} {
		if got := SupportedTail(c.n); got != c.want {
			t.Errorf("SupportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := Quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("Quartiles(1, 2) = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}

// streamHash digests everything a seed determines: the dataset, the read
// pool, the hot order and the head of an insert stream.
func streamHash(seed int64) uint64 {
	h := fnv.New64a()
	h.Write(Generate(seed, SmokeScale).NTriples)
	for _, r := range ReadPool(seed, SmokeScale, 200) {
		fmt.Fprintf(h, "%s %v %v\n", r.Path, r.GeoJSON, r.Ordered)
	}
	fmt.Fprint(h, ZipfOrder(seed, hotSetSize, 500))
	in := NewInserter(seed, "client")
	for i := 0; i < 100; i++ {
		r := in.Next()
		fmt.Fprintf(h, "%s %s\n", r.IRI, r.Text)
	}
	return h.Sum64()
}

func TestStreamsComeFromTheSeed(t *testing.T) {
	// Pinned: a change to the generators changes what every workload
	// sends, so the baseline must be measured again. Update the value
	// only together with a note in CHANGES.md.
	const seed1 = uint64(0xc43390b8022aff12)
	a, b := streamHash(1), streamHash(1)
	if a != b {
		t.Fatalf("seed 1 gave two different streams: %016x and %016x", a, b)
	}
	if a != seed1 {
		t.Errorf("seed 1 streams hash to %#016x, pinned %#016x", a, seed1)
	}
	if c := streamHash(2); c == a {
		t.Errorf("seeds 1 and 2 gave the same streams")
	}
}

func TestReadPoolMixIsExact(t *testing.T) {
	var n [numClasses]int
	for _, r := range ReadPool(3, FullScale, 500) {
		n[r.Class]++
	}
	if n[ClassWindow] != 350 || n[ClassCatalogue] != 100 || n[ClassJoin] != 50 {
		t.Errorf("class mix %v, want 350 window / 100 catalogue / 50 join", n)
	}
}

func TestGeneratedQueriesParseAndFindRows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full-scale dataset")
	}
	ds := Generate(5, FullScale)
	st := strabon.NewStore()
	if n, err := st.LoadNTriples(bytes.NewReader(ds.NTriples)); err != nil || n != ds.Triples {
		t.Fatalf("loading the dataset: %d of %d statements, %v", n, ds.Triples, err)
	}
	eng := stsparql.New(st)
	pool := ReadPool(5, FullScale, 100)
	nonEmpty := 0
	for i := range pool {
		q, err := stsparql.ParseQuery(pool[i].Text)
		if err != nil {
			t.Fatalf("query %d does not parse: %v\n%s", i, err, pool[i].Text)
		}
		res, err := eng.Eval(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Bindings) > 0 {
			nonEmpty++
		}
		// Every generated result must have a canonical form (only the
		// geometry kinds flattenGeometry knows may appear).
		if _, err := AnswerOf(&pool[i], res); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if nonEmpty < 90 {
		t.Errorf("only %d of 100 generated queries return rows", nonEmpty)
	}
	in := NewInserter(5, "t")
	for i := 0; i < 20; i++ {
		r := in.Next()
		q, err := stsparql.ParseQuery(r.Text)
		if err != nil {
			t.Fatalf("insert does not parse: %v\n%s", err, r.Text)
		}
		if res, err := eng.Eval(q); err != nil || res.Affected != triplesPerObservation {
			t.Fatalf("insert affected %d triples, %v", res.Affected, err)
		}
	}
}

func TestScheduleBurstsAndOffsets(t *testing.T) {
	n := 0
	next := func() Op { n++; return Op{Index: n} }
	events := Schedule(time.Second,
		RateStream{PerSecond: 4, Next: next},
		RateStream{PerSecond: 8, Burst: 4, Spacing: 2 * time.Millisecond, Offset: 100 * time.Millisecond, Next: next})
	var due []string
	for _, ev := range events {
		due = append(due, fmt.Sprintf("%d@%v", ev.Stream, ev.Due))
	}
	want := "0@0s 1@100ms 1@102ms 1@104ms 1@106ms 0@250ms 0@500ms 1@600ms 1@602ms 1@604ms 1@606ms 0@750ms"
	if got := strings.Join(due, " "); got != want {
		t.Errorf("due times %s, want %s", got, want)
	}
}

func TestOpenLoopStreamsDoNotWaitForOneAnother(t *testing.T) {
	// Stream 0's first request takes 60 ms; stream 1's requests, due
	// meanwhile, have a connection of their own and must not queue
	// behind it, while stream 0's second request must.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("query") == "slow" {
			time.Sleep(60 * time.Millisecond)
		}
		fmt.Fprintln(w, "{}")
	}))
	defer srv.Close()
	slow := Request{Class: ClassWindow, Path: "/sparql?query=slow"}
	fast := Request{Class: ClassCatalogue, Path: "/sparql?query=fast"}
	events := []Event{
		{Due: 0, Stream: 0, Op: Op{Req: &slow}},
		{Due: 10 * time.Millisecond, Stream: 1, Op: Op{Req: &fast}},
		{Due: 20 * time.Millisecond, Stream: 0, Op: Op{Req: &fast}},
		{Due: 30 * time.Millisecond, Stream: 1, Op: Op{Req: &fast}},
	}
	client := NewClient(srv.URL, 2)
	defer client.Close()
	res := RunOpen(client, 2, events, func(int, Op, int, []byte) (int, error) { return 1, nil })
	if len(res.Samples) != 4 {
		t.Fatalf("%d samples, want 4: %v", len(res.Samples), res.Errors)
	}
	for _, s := range res.Samples {
		lat := time.Duration(s.Nanos)
		switch {
		case s.Class == ClassCatalogue && s.Due == 20*time.Millisecond:
			if lat < 35*time.Millisecond {
				t.Errorf("stream 0's second request took %v: it did not wait for the first", lat)
			}
		case s.Class == ClassCatalogue:
			if lat > 30*time.Millisecond {
				t.Errorf("stream 1's request due at %v took %v: it queued behind stream 0", s.Due, lat)
			}
		}
	}
}

func TestOpenLoopTimesFromTheDueTime(t *testing.T) {
	// A server that takes 30 ms per request, one connection, requests
	// due every 10 ms: the open loop must keep charging the backlog to
	// the requests (latency from the due time grows by ~20 ms each)
	// while reporting that the generator itself was not late.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		fmt.Fprintln(w, "{}")
	}))
	defer srv.Close()
	req := Request{Class: ClassWindow, Path: "/sparql?query=x"}
	events := Schedule(80*time.Millisecond, RateStream{PerSecond: 100, Next: func() Op { return Op{Req: &req} }})
	client := NewClient(srv.URL, 1)
	defer client.Close()
	res := RunOpen(client, 1, events, func(int, Op, int, []byte) (int, error) { return 1, nil })
	if len(res.Samples) != 8 {
		t.Fatalf("%d samples, want 8", len(res.Samples))
	}
	for i, s := range res.Samples {
		if !s.OK {
			t.Fatalf("sample %d failed: %v", i, res.Errors)
		}
		service := time.Duration(i+1) * 30 * time.Millisecond
		if wantMin := service - s.Due; time.Duration(s.Nanos) < wantMin {
			t.Errorf("request %d due at %v: latency %v is less than the %v it waited since it was due",
				i, s.Due, time.Duration(s.Nanos), wantMin)
		}
		if time.Duration(s.Lag) > 20*time.Millisecond {
			t.Errorf("request %d: generator lag %v, but only the server was slow", i, time.Duration(s.Lag))
		}
	}
	last := res.Samples[len(res.Samples)-1]
	if time.Duration(last.Nanos) < 150*time.Millisecond {
		t.Errorf("last request's latency %v does not include the backlog (want >= 170ms)", time.Duration(last.Nanos))
	}
}

func TestVerifierCatchesAWrongAnswer(t *testing.T) {
	req := Request{Class: ClassCatalogue, Ordered: true}
	body := func(values ...string) []byte {
		var rows []string
		for _, v := range values {
			rows = append(rows, `{"h":{"type":"uri","value":"`+v+`"}}`)
		}
		return []byte(`{"head":{"vars":["h"]},"results":{"bindings":[` + strings.Join(rows, ",") + `]}}`)
	}
	want, err := AnswerOfBody(&req, body("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier([]Request{req}, []Answer{want})
	if rows, err := v.Check(0, 200, body("a", "b")); err != nil || rows != 2 {
		t.Errorf("right answer: %d rows, %v", rows, err)
	}
	if _, err := v.Check(0, 200, body("b", "a")); err == nil {
		t.Error("rows in the wrong order passed an ORDER BY check")
	}
	if _, err := v.Check(0, 200, body("a")); err == nil {
		t.Error("a missing row passed")
	}
	if _, err := v.Check(0, 503, body("a", "b")); err == nil {
		t.Error("a 503 passed")
	}
	unordered := req
	unordered.Ordered = false
	w2, _ := AnswerOfBody(&unordered, body("a", "b"))
	v2 := NewVerifier([]Request{unordered}, []Answer{w2})
	if _, err := v2.Check(0, 200, body("b", "a")); err != nil {
		t.Errorf("row order must not matter without ORDER BY: %v", err)
	}
}

// TestSmoke boots the real child server on a tiny dataset and checks
// that every metric BENCHMARK.json declares is printed exactly once per
// declared workload, by the end-to-end run and by the traced pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots teleios-server")
	}
	env, err := NewEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	spec, err := LoadSpec(env.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []int{0, 1} {
		var out, log bytes.Buffer
		o := Options{Root: "..", Seed: 3, Smoke: true, Trace: traced, Sets: 1, Runs: 1, Log: &log}
		if err := Main(env, o, &out); err != nil {
			t.Fatalf("trace=%d: %v\n%s\n%s", traced, err, out.String(), log.String())
		}
		declared := spec.EndToEnd
		if traced == 1 {
			declared = spec.PerLayer
		}
		printed := map[string]int{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 {
				printed[f[0]+" "+f[1]+" "+f[3]]++
			}
		}
		for _, w := range spec.Workloads {
			for _, m := range declared {
				if n := printed[w.Name+" "+m.Name+" "+m.Unit]; n != 1 {
					t.Errorf("trace=%d: %s %s [%s] printed %d times, want once", traced, w.Name, m.Name, m.Unit, n)
				}
			}
		}
		if traced == 1 {
			for _, w := range spec.Workloads {
				if _, err := os.Stat(filepath.Join(env.OutDir, "trace."+w.Name+".jsonl")); err != nil {
					t.Errorf("no trace file for %s: %v", w.Name, err)
				}
			}
		}
	}
}
