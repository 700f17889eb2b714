// Package faults is a named-failpoint framework for deterministic
// fault injection. Production code plants failpoints at the places
// that can fail in the wild (fsync, rename, network read, serializer
// write) by calling Eval with a stable name; tests — or an operator
// via the TELEIOS_FAILPOINTS environment variable — arm those points
// with a small spec language to force errors, latency, or torn writes
// on demand.
//
// The framework is compiled in unconditionally but costs a single
// atomic load per Eval when no failpoint is armed, so plants are safe
// on hot paths.
//
// # Spec language
//
// A spec is a sequence of terms separated by "->". Each term is an
// action with an optional repeat count:
//
//	[N*]action
//
// Actions:
//
//	off           do nothing (useful as a sequence terminator)
//	error         return an error wrapping ErrInjected
//	error(msg)    same, with msg in the error text
//	sleep(dur)    sleep for a Go duration (e.g. 25ms), then continue
//	torn(n)       return a *TornWriteError telling the call site to
//	              persist only the first n bytes before failing
//
// Without a count a term repeats forever; with "N*" it fires N times
// and then the next term takes over. When every term is exhausted the
// failpoint goes quiet (hits are still counted).
//
// Examples:
//
//	error                       fail every time
//	2*error->off                fail twice, then recover
//	1*torn(7)                   tear the first write at 7 bytes
//	3*sleep(50ms)->1*error      slow disk, then a hard failure
//
// The environment variable TELEIOS_FAILPOINTS arms points at process
// start: "name=spec;name2=spec2".
package faults

//go:generate go run repro/internal/lint/genregistry

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// tests can tell injected failures from real ones with errors.Is.
var ErrInjected = errors.New("fault injected")

// TornWriteError instructs the call site to write only the first
// Allow bytes of the payload and then fail, simulating a torn write
// (power cut mid-write, short network frame). It wraps ErrInjected.
type TornWriteError struct {
	Name  string
	Allow int
}

func (e *TornWriteError) Error() string {
	return fmt.Sprintf("failpoint %s: torn write after %d bytes: %v", e.Name, e.Allow, ErrInjected)
}

func (e *TornWriteError) Unwrap() error { return ErrInjected }

// AsTorn reports whether err carries a torn-write instruction and, if
// so, how many bytes the call site should persist before failing.
func AsTorn(err error) (allow int, ok bool) {
	var t *TornWriteError
	if errors.As(err, &t) {
		return t.Allow, true
	}
	return 0, false
}

type actionKind int

const (
	actOff actionKind = iota
	actError
	actSleep
	actTorn
)

type term struct {
	count  int // remaining firings; -1 = forever
	action actionKind
	msg    string
	dur    time.Duration
	allow  int
}

type point struct {
	mu    sync.Mutex
	terms []term
	spec  string
}

var (
	// armed is the fast path: Eval returns immediately while zero.
	armed atomic.Int32

	mu     sync.RWMutex
	points = map[string]*point{}
	hits   = map[string]*atomic.Uint64{}
)

func init() {
	if s := os.Getenv("TELEIOS_FAILPOINTS"); s != "" {
		if err := EnableFromSpec(s); err != nil {
			fmt.Fprintf(os.Stderr, "faults: bad TELEIOS_FAILPOINTS: %v\n", err)
		}
	}
}

// Enable arms the named failpoint with spec, replacing any previous
// arming. An "off" spec is valid and leaves the point counting hits
// without acting.
func Enable(name, spec string) error {
	terms, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, had := points[name]; !had {
		armed.Add(1)
	}
	points[name] = &point{terms: terms, spec: spec}
	if hits[name] == nil {
		hits[name] = &atomic.Uint64{}
	}
	return nil
}

// EnableFromSpec arms multiple failpoints from a "name=spec;name=spec"
// string (the TELEIOS_FAILPOINTS format). Empty segments are ignored.
func EnableFromSpec(s string) error {
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faults: %q: want name=spec", part)
		}
		if err := Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Reset disarms every failpoint and clears all hit counters.
//
//lint:allow unreachable(failpoint test API: the endpoint, persist and replication fault tests disarm every failpoint with it)
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = map[string]*point{}
	hits = map[string]*atomic.Uint64{}
}

// Hits reports how many times the named failpoint was evaluated while
// armed (including evaluations that took no action).
//
//lint:allow unreachable(failpoint test API: the endpoint, persist and replication fault tests read hit counts with it)
func Hits(name string) uint64 {
	mu.RLock()
	defer mu.RUnlock()
	if c := hits[name]; c != nil {
		return c.Load()
	}
	return 0
}

// Eval is the plant call. It returns nil instantly when the named
// failpoint is not armed; otherwise it performs the current term's
// action: nil for off/exhausted, a sleep (then nil), an error
// wrapping ErrInjected, or a *TornWriteError.
func Eval(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	p := points[name]
	c := hits[name]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	c.Add(1)
	p.mu.Lock()
	var t *term
	for len(p.terms) > 0 {
		if p.terms[0].count != 0 {
			t = &p.terms[0]
			break
		}
		p.terms = p.terms[1:]
	}
	if t == nil {
		p.mu.Unlock()
		return nil
	}
	if t.count > 0 {
		t.count--
	}
	action, msg, dur, allow := t.action, t.msg, t.dur, t.allow
	p.mu.Unlock()

	switch action {
	case actError:
		if msg != "" {
			return fmt.Errorf("failpoint %s: %s: %w", name, msg, ErrInjected)
		}
		return fmt.Errorf("failpoint %s: %w", name, ErrInjected)
	case actSleep:
		time.Sleep(dur)
	case actTorn:
		return &TornWriteError{Name: name, Allow: allow}
	}
	return nil
}

func parseSpec(spec string) ([]term, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, errors.New("empty spec")
	}
	parts := strings.Split(spec, "->")
	terms := make([]term, 0, len(parts))
	for _, raw := range parts {
		raw = strings.TrimSpace(raw)
		t := term{count: -1}
		if i := strings.Index(raw, "*"); i >= 0 {
			n, err := strconv.Atoi(strings.TrimSpace(raw[:i]))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad repeat count %q", raw)
			}
			t.count = n
			raw = strings.TrimSpace(raw[i+1:])
		}
		name, arg := raw, ""
		if i := strings.Index(raw, "("); i >= 0 {
			if !strings.HasSuffix(raw, ")") {
				return nil, fmt.Errorf("unbalanced parens in %q", raw)
			}
			name, arg = raw[:i], raw[i+1:len(raw)-1]
		}
		switch name {
		case "off":
			t.action = actOff
		case "error":
			t.action = actError
			t.msg = arg
		case "sleep":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("bad sleep duration %q", arg)
			}
			t.action = actSleep
			t.dur = d
		case "torn":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad torn byte count %q", arg)
			}
			t.action = actTorn
			t.allow = n
		default:
			return nil, fmt.Errorf("unknown action %q", name)
		}
		terms = append(terms, t)
	}
	return terms, nil
}
