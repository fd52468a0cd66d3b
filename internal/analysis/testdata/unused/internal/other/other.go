// Package other is a shipping internal package using lib.
package other

import "example.com/dp/internal/lib"

func init() { lib.UsedByInternal() }
