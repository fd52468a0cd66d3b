// Package libtest is a test-helper package: its own exported identifiers are
// out of scope, and its references keep nothing alive.
package libtest

import "example.com/dp/internal/lib"

// Helper is unused, and exempt.
func Helper() int {
	lib.Svc{}.HelperOnly()
	return lib.OnlyHelper()
}
