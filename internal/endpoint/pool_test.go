package endpoint

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
)

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4, 16)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	// Submit waits for completion, so each goroutine holds at most one
	// job in flight: 8 submitters can never exceed workers+queue and no
	// submission is rejected.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := p.Submit(context.Background(), func() { n.Add(1) }); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n.Load() != 200 {
		t.Fatalf("ran %d jobs, want 200", n.Load())
	}
	if s := p.Stats(); s.Submitted != 200 || s.Rejected != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPoolRejectsWhenFull(t *testing.T) {
	p := NewPool(1, 0)
	defer p.Close()
	gate := make(chan struct{})
	release := releaser(gate)
	defer release()
	started := make(chan struct{})
	go func() {
		// Depth 0 means an unbuffered handoff: the submission itself is
		// rejected unless the worker is already parked on the channel,
		// so retry until it lands.
		for {
			err := p.Submit(context.Background(), func() {
				close(started)
				<-gate
			})
			if err != ErrOverloaded {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-started
	// Worker busy, queue depth 0: submission must bounce immediately.
	if err := p.Submit(context.Background(), func() {}); err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	release()
}

func TestPoolAbandonsTimedOutQueuedJobs(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	gate := make(chan struct{})
	release := releaser(gate)
	defer release()
	started := make(chan struct{})
	go p.Submit(context.Background(), func() {
		close(started)
		<-gate
	})
	<-started
	// This job sits in the queue past its deadline; the worker must skip
	// its fn once the gate opens.
	ran := false
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := p.Submit(ctx, func() { ran = true })
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	release()
	p.Close() // drains the queue
	if ran {
		t.Fatal("abandoned job still ran")
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	p.Close() // idempotent
	if err := p.Submit(context.Background(), func() {}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestResultCacheVersioningAndLRU(t *testing.T) {
	c := NewResultCache(2)
	b1, b2 := []byte("one"), []byte("two")
	k := cacheKey{src: "q1", version: 1, seq: 1, format: FormatJSON}
	c.Put(k, b1)
	if got, ok := c.Get(k); !ok || string(got) != "one" {
		t.Fatal("expected hit on the same tuple")
	}
	// A tuple that differs only in its format, its version or its seq
	// (on a replica, replicated writes move the seq) is another entry.
	for _, other := range []cacheKey{
		{src: "q1", version: 1, seq: 1, format: FormatCSV},
		{src: "q1", version: 2, seq: 1, format: FormatJSON},
		{src: "q1", version: 1, seq: 2, format: FormatJSON},
	} {
		if _, ok := c.Get(other); ok {
			t.Fatalf("%+v hit the entry of %+v", other, k)
		}
	}
	// LRU order: touch k so k2 is the eviction victim.
	k2 := cacheKey{src: "q2", version: 1, seq: 1, format: FormatJSON}
	k3 := cacheKey{src: "q3", version: 1, seq: 1, format: FormatJSON}
	c.Put(k2, b2)
	c.Get(k)
	c.Put(k3, b1)
	if _, ok := c.Get(k2); ok {
		t.Fatal("q2 should have been evicted")
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("q1 should have survived")
	}
	if s := c.Stats(); s.Capacity != 2 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := NewResultCache(-1)
	k := cacheKey{src: "q", version: 1}
	c.Put(k, []byte("body"))
	if _, ok := c.Get(k); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestGeoJSONGeometryShapes(t *testing.T) {
	poly := geo.NewPolygon(
		geo.NewRing(geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0}, geo.Point{X: 10, Y: 10}, geo.Point{X: 0, Y: 10}),
		geo.NewRing(geo.Point{X: 4, Y: 4}, geo.Point{X: 6, Y: 4}, geo.Point{X: 6, Y: 6}, geo.Point{X: 4, Y: 6}),
	)
	enc, err := geoJSONGeometry(poly)
	if err != nil {
		t.Fatal(err)
	}
	if enc["type"] != "Polygon" {
		t.Fatalf("type = %v", enc["type"])
	}
	rings := enc["coordinates"].([][][2]float64)
	if len(rings) != 2 {
		t.Fatalf("got %d rings, want exterior + hole", len(rings))
	}
	if rings[0][0] != rings[0][len(rings[0])-1] {
		t.Fatal("exterior ring is not closed")
	}
	line := geo.NewLineString(geo.Point{X: 1, Y: 2}, geo.Point{X: 3, Y: 4})
	enc, err = geoJSONGeometry(geo.GeometryCollection{Geometries: []geo.Geometry{line, geo.Point{X: 5, Y: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	members := enc["geometries"].([]map[string]any)
	if len(members) != 2 || members[0]["type"] != "LineString" || members[1]["type"] != "Point" {
		t.Fatalf("collection = %v", enc)
	}
	mp := geo.MultiPolygon{Polygons: []geo.Polygon{poly, geo.Rect(20, 20, 30, 30)}}
	enc, err = geoJSONGeometry(mp)
	if err != nil {
		t.Fatal(err)
	}
	if polys := enc["coordinates"].([][][][2]float64); len(polys) != 2 {
		t.Fatalf("multipolygon members = %d", len(polys))
	}
}
