package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: traffic is refused until the cooldown elapses.
	Open
	// HalfOpen: cooldown elapsed; probe traffic is admitted and the
	// next outcome decides between Closed and Open.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker with half-open
// probing. FailAfter consecutive Failure calls open the circuit; after
// OpenFor it admits probes, and ProbeSuccesses consecutive Success
// calls close it again. A Failure during probing re-opens immediately.
//
// With OpenFor == 0 the cooldown is instantaneous: the breaker still
// opens (so observers see the state and can shed), but the very next
// probe is admitted — matching health checkers that want a single
// success to readmit a backend.
type Breaker struct {
	FailAfter      int           // consecutive failures to open; default 3
	OpenFor        time.Duration // cooldown before probing; 0 = probe immediately
	ProbeSuccesses int           // successes needed to close; default 1
	Clock          func() time.Time

	mu        sync.Mutex
	state     BreakerState
	fails     int
	successes int
	openedAt  time.Time
	trips     uint64
}

func (b *Breaker) now() time.Time {
	if b.Clock != nil {
		return b.Clock()
	}
	return time.Now()
}

func (b *Breaker) failAfter() int {
	if b.FailAfter <= 0 {
		return 3
	}
	return b.FailAfter
}

func (b *Breaker) probeSuccesses() int {
	if b.ProbeSuccesses <= 0 {
		return 1
	}
	return b.ProbeSuccesses
}

// cooled reports whether the open cooldown has elapsed. Callers hold b.mu.
func (b *Breaker) cooled() bool {
	return !b.now().Before(b.openedAt.Add(b.OpenFor))
}

// Success records a successful call. In half-open (or open past its
// cooldown) it counts toward closing; while still cooling down it is
// ignored — the breaker insists on its pause.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case Open:
		if !b.cooled() {
			return
		}
		b.state = HalfOpen
		b.successes = 0
		fallthrough
	case HalfOpen:
		b.successes++
		if b.successes >= b.probeSuccesses() {
			b.state = Closed
			b.fails = 0
			b.successes = 0
		}
	}
}

// Failure records a failed call. FailAfter consecutive failures open
// the circuit; any failure while probing re-opens it.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.failAfter() {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	case Open:
		// Already open; the cooldown keeps running from the original trip.
	}
}

func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.fails = 0
	b.successes = 0
	b.trips++
}

// State reports the effective state: an open breaker whose cooldown
// has elapsed reads as half-open (probes would be admitted).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cooled() {
		return HalfOpen
	}
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
