// Package leakcheck fails a test binary that exits with goroutines
// still running — the in-repo substitute for go.uber.org/goleak (the
// module deliberately has zero dependencies). Wire it into a package
// with:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main closes idle HTTP connections, then polls
// the runtime's goroutine dump until only known-benign goroutines
// remain (or a grace period expires — goroutines legitimately take a
// moment to unwind after Close/Cleanup). Anything left is printed with
// its full stack and the binary exits non-zero.
//
//lint:allow unreachable(test support: TestMain of the endpoint and replication tests calls it)
package leakcheck

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredStacks marks goroutines that are not leaks: the test runner
// itself, signal handling, and the shared HTTP transport's connection
// loops (which exit lazily after CloseIdleConnections).
var ignoredStacks = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"created by testing.",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ReadTrace",
	"net/http.(*persistConn).readLoop",
	"net/http.(*persistConn).writeLoop",
	"net/http.(*Transport).dialConn",
}

// Main runs the package's tests and then the leak check.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Check(5 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls until no unexpected goroutines remain, returning an
// error describing the leaked stacks if grace expires first.
func Check(grace time.Duration) error {
	// Idle keep-alive connections park goroutines by design; flush the
	// shared transports every test in this repo uses implicitly.
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(grace)
	var leaked []string
	for {
		leaked = unexpected()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

// unexpected returns the stacks of goroutines that are neither the
// caller nor on the ignore list.
func unexpected() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(string(buf), "\n\n")
	var out []string
	for i, s := range stacks {
		if i == 0 {
			continue // the goroutine running this check
		}
		if isIgnored(s) {
			continue
		}
		out = append(out, s)
	}
	return out
}

func isIgnored(stack string) bool {
	for _, pat := range ignoredStacks {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}
