// Command tool is the fixture's binary: main, init and the var
// initializers of the packages it links are roots.
package main

import "unreach/a"

var _ = a.Registered()

func init() { a.Init() }

func main() { a.Live() }

func helper() {} // want `func helper is reached from no main`
