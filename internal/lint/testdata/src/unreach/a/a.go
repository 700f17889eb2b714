// Package a declares the names the unreachable golden test classifies.
package a

import "fmt"

// Live is called by the tool's main.
func Live() {
	liveHelper()
	var c Counter
	fmt.Println(&c, KindA)
}

func liveHelper() {}

// Init is called by the tool's init function.
func Init() {}

// Registered runs in one of the tool's var initializers.
func Registered() int { return 1 }

// Describe is reached through the root package's Hello.
func Describe(v any) string { return fmt.Sprint(v) }

// DeadCaller is reached by nothing, and its test does not count.
func DeadCaller() int { return calledOnlyByDead() } // want `func DeadCaller is reached from no main`

// calledOnlyByDead is called only by a dead function.
func calledOnlyByDead() int { return 2 } // want `func calledOnlyByDead`

func deadUnexported() {} // want `func deadUnexported`

// OnlyOwnTest is called by a_test.go alone.
func OnlyOwnTest() int { return 1 } // want `func OnlyOwnTest`

// UsedByOtherTest is called by b's test alone.
func UsedByOtherTest() int { return 2 } // want `func UsedByOtherTest`

// Square is exported by the root package as Shape.
type Square struct{ Side float64 }

// Area is in the method set of a type the root package exports.
func (s Square) Area() float64 { return s.Side * s.Side }

// scale is unexported: the root package's export does not keep it.
func (s Square) scale(k float64) Square { return Square{s.Side * k} } // want `method scale`

// Counter is reached from Live.
type Counter struct{ n int }

// String is kept: it satisfies fmt.Stringer.
func (c *Counter) String() string { return fmt.Sprint(c.n) }

// Reset satisfies no interface and nothing calls it.
func (c *Counter) Reset() { c.n = 0 } // want `method Reset`

// Kept has a reason to stay, and it keeps what it calls.
//
//lint:allow unreachable(the fixture's kept name)
func Kept() { keptCallee() }

func keptCallee() {}

/* want `needs a reason` */ //lint:allow unreachable()
func NoReason()             {} // want `func NoReason`

// DeadConst, DeadVar and DeadType are referenced by nothing.
const DeadConst = 1 // want `const DeadConst`

var DeadVar = 2 // want `var DeadVar`

type DeadType int // want `type DeadType`

// A Kind is an enumeration: Live names KindA, which keeps the block.
type Kind int

const (
	KindA Kind = iota
	KindB
)
