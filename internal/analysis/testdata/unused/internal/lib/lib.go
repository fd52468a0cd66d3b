// Package lib is dplint testdata for the unused analyzer. An exported
// package-level identifier of an internal package must have a use in
// shipping code — another internal package, dining, cmd/, examples/ or the
// perfbench module — other than its own declaration and methods. So must an
// exported method of a type declared here, unless its name and signature
// match a method of an interface that shipping code mentions or that the
// standard library declares, and the type implements that interface. An
// exported field of a struct type declared here must be set by shipping
// code, other than to a constant zero; embedded and tagged fields are exempt.
// Uses from tests and from test-helper packages do not count.
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

// Self is referenced by its own declaration and its methods alone.
type Self struct { // want `exported type Self has no non-test use`
	next *Self
}

// Walk is referenced by nothing.
func (s *Self) Walk() *Self { return s.next } // want `exported method Self.Walk has no non-test use`

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

// Box and Map are used through instantiations (by cmd and examples); cmd
// sets V through Box[int].
type Box[T any] struct{ V T }

func Map[T any](x T) T { return x }

// Svc carries the method cases; cmd/tool and package other use it.
type Svc struct{}

// CalledByCmd is called from cmd/.
func (Svc) CalledByCmd() {}

// TestedOnly is called by lib_test.go alone.
func (Svc) TestedOnly() {} // want `exported method Svc.TestedOnly has no non-test use`

// HelperOnly is called by the test-helper package libtest alone.
func (Svc) HelperOnly() {} // want `exported method Svc.HelperOnly has no non-test use`

// Loop refers only to itself.
func (s Svc) Loop(n int) int { // want `exported method Svc.Loop has no non-test use`
	if n == 0 {
		return 0
	}
	return s.Loop(n - 1)
}

// FaultSpec is reached only through package other's assertion to an
// anonymous interface.
func (Svc) FaultSpec() string { return "none" }

// String is reached only through fmt, when cmd/tool prints an Svc.
func (Svc) String() string { return "svc" }

// Run satisfies Runner, which package other calls.
func (Svc) Run() int { return 1 }

// Runner is a module interface that shipping code uses.
type Runner interface{ Run() int }

// Sizer is a module interface that shipping code uses.
type Sizer interface {
	Len() int
	Cap() int
}

// Partial has Sizer's Len but no Cap: it is no Sizer, so the interface does
// not keep its Len alive.
type Partial struct{}

// Len is referenced by nothing.
func (Partial) Len() int { return 0 } // want `exported method Partial.Len has no non-test use`

// Full is a Sizer through its pointer, which keeps both methods alive.
type Full struct{}

// Len satisfies Sizer.
func (*Full) Len() int { return 0 }

// Cap satisfies Sizer.
func (*Full) Cap() int { return 0 }

// Base is embedded in Wrapper.
type Base struct{}

// Promoted is called by cmd/tool on a Wrapper.
func (Base) Promoted() {}

// Wrapper promotes Base's methods.
type Wrapper struct{ Base }

// Spare is kept on purpose.
//
//dplint:ok unused the suppression path for a method
func (Svc) Spare() {}

// hidden is unexported, but its exported methods and fields are in scope.
type hidden struct {
	Level int // want `exported field hidden.Level is never set by non-test code`
}

// Dead is referenced by nothing.
func (hidden) Dead() {} // want `exported method hidden.Dead has no non-test use`

// Extension is kept on purpose.
//
//dplint:ok unused the suppression path: a documented extension point
func Extension() {}

// unexported identifiers are out of scope.
func helper() {}

// Knobs carries the field cases; package other sets most of them.
type Knobs struct {
	Keyed     int  // a keyed literal element
	Assigned  int  // an assignment
	Counted   int  // an increment
	Addressed int  // &k.Addressed
	Locked    Gate // a pointer-receiver method call on k.Locked
	Tagged    int  `json:"tagged"` // set by reflection, so exempt
	Tested    int  // want `exported field Knobs.Tested is never set by non-test code`
	Helped    int  // want `exported field Knobs.Helped is never set by non-test code`
	Zeroed    bool // want `exported field Knobs.Zeroed is never set by non-test code`
	Read      int  // want `exported field Knobs.Read is never set by non-test code`
	Base           // embedded for promotion, so exempt

	//dplint:ok unused the suppression path for a field
	Instrument int

	hidden int // unexported fields are out of scope
}

// Pair is set by a positional literal in package other.
type Pair struct{ A, B int }

// Gate has a pointer-receiver method.
type Gate struct{ n int }

// Close is called by package other on a Knobs field.
func (g *Gate) Close() { g.n++ }
