// Package lib is dplint testdata for the unused analyzer. An exported
// package-level identifier of an internal package must have a use in
// shipping code — another internal package, dining, cmd/, examples/ or the
// perfbench module — other than its own declaration and methods. Uses from
// tests and from test-helper packages do not count.
package lib

// Unused is referenced by nothing.
func Unused() {} // want `exported func Unused has no non-test use`

// OnlyTests is referenced by lib_test.go alone.
func OnlyTests() int { return 1 } // want `exported func OnlyTests has no non-test use`

// OnlyHelper is referenced by the test-helper package libtest alone.
func OnlyHelper() int { return 2 } // want `exported func OnlyHelper has no non-test use`

// Recursive refers only to itself.
func Recursive(n int) int { // want `exported func Recursive has no non-test use`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Self is referenced by its own declaration and its methods alone. Its
// methods are out of scope: interface satisfaction hides their callers.
type Self struct { // want `exported type Self has no non-test use`
	next *Self
}

// Walk is an unused method, which the rule never reports.
func (s *Self) Walk() *Self { return s.next }

// Counter and Limit are referenced by nothing.
var Counter int // want `exported var Counter has no non-test use`

const Limit = 3 // want `exported const Limit has no non-test use`

// Outer is unused, but it keeps Inner alive: each pass reports one layer of
// dead code, and Inner is reported once Outer is deleted.
func Outer() int { return Inner } // want `exported func Outer has no non-test use`

// Inner is used by Outer.
const Inner = 4

// Shipping users elsewhere in the module keep these alive.
func UsedByCmd() {}

func UsedByExample() {}

func UsedByPerfbench() {}

func UsedByInternal() {}

func UsedByDining() {}

// Box and Map are used through instantiations (by cmd and examples).
type Box[T any] struct{ V T }

func Map[T any](x T) T { return x }

// Extension is kept on purpose.
//
//dplint:ok unused the suppression path: a documented extension point
func Extension() {}

// unexported identifiers are out of scope.
func helper() {}
