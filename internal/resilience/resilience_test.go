package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock shared by the deterministic
// limiter and breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Min: 100 * time.Millisecond, Max: 5 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// A huge attempt number must not overflow past Max.
	if got := b.Delay(200); got != 5*time.Second {
		t.Errorf("Delay(200) = %v, want cap", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// Rand pinned at extremes: 0 → no reduction, just-under-1 → full
	// Jitter reduction.
	b := Backoff{Min: time.Second, Max: time.Minute, Jitter: 0.5, Rand: func() float64 { return 0 }}
	if got := b.Delay(1); got != 2*time.Second {
		t.Errorf("jitter(rand=0) Delay(1) = %v, want 2s", got)
	}
	b.Rand = func() float64 { return 0.999999 }
	got := b.Delay(1)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Errorf("jitter(rand→1) Delay(1) = %v, want ≈1s", got)
	}
	// Default shared rand must stay within [d*(1-J), d].
	b.Rand = nil
	for i := 0; i < 100; i++ {
		d := b.Delay(2)
		if d < 2*time.Second || d > 4*time.Second {
			t.Fatalf("jittered Delay(2) = %v outside [2s, 4s]", d)
		}
	}
}

func TestPerKeyIsolationAndEviction(t *testing.T) {
	clk := newFakeClock()
	p := NewPerKey(1, 2, 2) // burst 2 per key, at most 2 keys
	p.now = clk.Now
	for i := 0; i < 2; i++ {
		if ok, _ := p.Take("alice"); !ok {
			t.Fatalf("alice take %d refused", i)
		}
	}
	if ok, _ := p.Take("alice"); ok {
		t.Fatal("alice admitted beyond burst")
	}
	// bob is unaffected by alice's exhaustion.
	if ok, _ := p.Take("bob"); !ok {
		t.Fatal("bob refused despite fresh bucket")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	// Third key evicts the LRU (alice: bob was touched last).
	if ok, _ := p.Take("carol"); !ok {
		t.Fatal("carol refused")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", p.Len())
	}
	if p.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", p.Evicted())
	}
	// alice was evicted, so she returns with a full bucket.
	if ok, _ := p.Take("alice"); !ok {
		t.Fatal("re-admitted alice should have a fresh bucket")
	}
	// Refill is per key and clock-driven.
	clk.Advance(time.Second)
	if ok, _ := p.Take("alice"); !ok {
		t.Fatal("alice refused after refill")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	b := &Breaker{FailAfter: 3, OpenFor: 10 * time.Second, ProbeSuccesses: 2, Clock: clk.Now}
	if b.State() != Closed {
		t.Fatal("new breaker should be closed")
	}
	b.Failure()
	b.Failure()
	b.Success() // resets the consecutive count
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("2 consecutive failures should not trip FailAfter=3")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state = %v, want open after 3 consecutive failures", b.State())
	}
	// Success during cooldown is ignored — the pause is mandatory.
	b.Success()
	if b.State() != Open {
		t.Fatal("success during cooldown must not close")
	}
	clk.Advance(10 * time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after cooldown", b.State())
	}
	b.Success() // first of two probe successes
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open after 1 of 2 probe successes", b.State())
	}
	b.Failure() // probe failed → re-open, fresh cooldown
	if b.State() != Open {
		t.Fatal("failed probe must re-open")
	}
	clk.Advance(10 * time.Second)
	b.Success()
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after two successful probes", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("Trips = %d, want 2", b.Trips())
	}
}

func TestBreakerProbeSuccesses(t *testing.T) {
	clk := newFakeClock()
	b := &Breaker{FailAfter: 1, OpenFor: time.Second, ProbeSuccesses: 2, Clock: clk.Now}
	b.Failure()
	clk.Advance(time.Second)
	b.Success()
	if b.State() == Closed {
		t.Fatal("closed after 1 probe success, want 2")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after 2 probe successes", b.State())
	}
}

func TestBreakerZeroCooldownReadmitsOnOneSuccess(t *testing.T) {
	// The router's health checker uses OpenFor=0: the breaker opens
	// (observable, sheds routing) but a single probe success readmits.
	b := &Breaker{FailAfter: 2}
	b.Failure()
	b.Failure()
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open (open with elapsed cooldown)", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips())
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state = %v, want closed after one success", b.State())
	}
}
