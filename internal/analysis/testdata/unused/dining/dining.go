// Package dining is the public API: its exported identifiers are out of
// scope, and its references count.
package dining

import "example.com/dp/internal/lib"

// Unused is part of the library's surface, so the rule ignores it.
func Unused() { lib.UsedByDining() }

// Handle is part of the library's surface too.
type Handle struct{}

// Release is a dining method nothing calls; the rule ignores it.
func (Handle) Release() {}
