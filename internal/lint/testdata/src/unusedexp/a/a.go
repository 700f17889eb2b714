// Package a declares the exported names the unusedexport golden test
// classifies; package b's test file uses some of them.
package a

import "fmt"

// Describe is called from a non-test file below, so it is used.
func Describe(v any) string { return fmt.Sprint(v) }

func describeSquare() string { return Describe(Square{}) }

// OnlyOwnTest is called by a_test.go alone.
func OnlyOwnTest() int { return 1 } // want `exported func OnlyOwnTest is referenced only by its own package's tests`

// UsedByOtherTest is called by b's test.
func UsedByOtherTest() int { return 2 }

// shape is satisfied by Square's Area method.
type shape interface{ Area() float64 }

var _ shape = Square{}

// Square is used through shape and fmt.Stringer.
type Square struct{ Side float64 }

// Area implements shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String implements fmt.Stringer.
func (s Square) String() string { return "square" }

// Scale is called through a selector in b's test.
func (s Square) Scale(k float64) Square { return Square{s.Side * k} }

// Perimeter is called by a_test.go alone.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported method Perimeter`

// Kept has a reason to stay.
//
//lint:allow unusedexport(the fixture's kept name)
func Kept() {}

/* want `needs a reason` */ //lint:allow unusedexport()
func NoReason()             {} // want `exported func NoReason`

// DeadConst, DeadVar and DeadType are referenced by nothing.
const DeadConst = 1 // want `exported const DeadConst`

var DeadVar = describeSquare() // want `exported var DeadVar`

type DeadType int // want `exported type DeadType`
