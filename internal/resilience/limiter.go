package resilience

import (
	"container/list"
	"math"
	"sync"
	"time"
)

type keyedBucket struct {
	key    string
	tokens float64
	last   time.Time
	elem   *list.Element
}

// PerKey maintains an independent token bucket per client key with
// LRU eviction so a spoofed key space cannot grow memory without
// bound. The zero value is unusable; use NewPerKey.
type PerKey struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	maxKeys int
	buckets map[string]*keyedBucket
	lru     *list.List // front = most recent
	now     func() time.Time
	evicted uint64
}

// NewPerKey builds a per-key limiter: each key gets a bucket of
// capacity burst refilled at rate tokens/second; at most maxKeys
// buckets are retained (least recently used evicted first).
func NewPerKey(rate float64, burst, maxKeys int) *PerKey {
	if burst < 1 {
		burst = 1
	}
	if maxKeys < 1 {
		maxKeys = 1
	}
	return &PerKey{
		rate:    rate,
		burst:   float64(burst),
		maxKeys: maxKeys,
		buckets: make(map[string]*keyedBucket),
		lru:     list.New(),
		now:     time.Now,
	}
}

// Take consumes one token from key's bucket, creating it (full) on
// first sight. Returns ok=false plus a retry hint when exhausted.
func (p *PerKey) Take(key string) (ok bool, retryAfter time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	b := p.buckets[key]
	if b == nil {
		b = &keyedBucket{key: key, tokens: p.burst, last: now}
		p.buckets[key] = b
		b.elem = p.lru.PushFront(b)
		if len(p.buckets) > p.maxKeys {
			oldest := p.lru.Back().Value.(*keyedBucket)
			p.lru.Remove(oldest.elem)
			delete(p.buckets, oldest.key)
			p.evicted++
		}
	} else {
		p.lru.MoveToFront(b.elem)
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(p.burst, b.tokens+dt*p.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / p.rate
	return false, time.Duration(need * float64(time.Second))
}

// Len reports how many client buckets are currently retained.
func (p *PerKey) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buckets)
}

// Evicted reports how many buckets the LRU bound has discarded.
func (p *PerKey) Evicted() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evicted
}
