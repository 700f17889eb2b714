package lint_test

import (
	"fmt"
	"go/token"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, lint.Lockcheck, "lockbasic")
}

// TestLockcheckMultiPackage checks that the ...Locked contract travels
// across a package boundary: the client fixture imports the store
// fixture and calls its exported BuildSnapshotLocked with and without
// the store's mutex held.
func TestLockcheckMultiPackage(t *testing.T) {
	analysistest.Run(t, lint.Lockcheck, "lockmulti/client")
}

func TestFsxcheck(t *testing.T) {
	analysistest.Run(t, lint.Fsxcheck, "repro/internal/persist")
}

func TestCtxcheck(t *testing.T) {
	analysistest.Run(t, lint.Ctxcheck, "repro/internal/stsparql")
}

func TestFailpointcheck(t *testing.T) {
	analysistest.Run(t, lint.Failpointcheck, "repro/internal/colpack")
}

func TestErrdropcheck(t *testing.T) {
	analysistest.Run(t, lint.Errdropcheck, "repro/internal/strabon")
}

// TestUnreachable runs the whole-program pass over a fixture module: a
// root package, a binary, a package whose names its own test, another
// package's test, the roots, an interface or nothing use, and a package
// whose test uses some of them.
func TestUnreachable(t *testing.T) {
	analysistest.RunWholeProgram(t, lint.Unreachable, "unreach", "unreach/cmd/tool", "unreach/a", "unreach/b")
}

// TestFailpointOrphanFinish drives the whole-program Finish hook with
// an empty plant set: every registered failpoint must be reported as
// orphaned, anchored at the generated registry file.
func TestFailpointOrphanFinish(t *testing.T) {
	prog := &lint.Program{}
	var msgs []string
	lint.Failpointcheck.Finish(prog, func(pos token.Position, format string, args ...any) {
		if pos.Filename != "internal/faults/registry.go" {
			t.Errorf("orphan diagnostic anchored at %q, want the registry file", pos.Filename)
		}
		msgs = append(msgs, fmt.Sprintf(format, args...))
	})
	if len(msgs) != len(faults.Registry) {
		t.Fatalf("got %d orphan reports, want one per registry entry (%d)", len(msgs), len(faults.Registry))
	}
	for _, m := range msgs {
		if !strings.Contains(m, "planted nowhere") {
			t.Errorf("unexpected orphan message: %s", m)
		}
	}
	for name := range faults.Registry {
		found := false
		for _, m := range msgs {
			if strings.Contains(m, fmt.Sprintf("%q", name)) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no orphan report for registered failpoint %q", name)
		}
	}
}
