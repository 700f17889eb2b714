// Package unreach is the fixture's root package: its exported names and
// the exported method sets of the types it exports are API, so they are
// roots.
package unreach

import "unreach/a"

// Shape exports a.Square, which keeps Square's exported methods.
type Shape = a.Square

// Hello is API; it keeps what it calls.
func Hello() string { return a.Describe(1) }
