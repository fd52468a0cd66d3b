// Package other is a shipping internal package using lib.
package other

import "example.com/dp/internal/lib"

func init() {
	lib.UsedByInternal()
	var v any = lib.Svc{}
	if s, ok := v.(interface{ FaultSpec() string }); ok {
		_ = s.FaultSpec()
	}
	var r lib.Runner = lib.Svc{}
	_ = r.Run()
}
