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
	var sz lib.Sizer = &lib.Full{}
	_, _ = sz, lib.Partial{}

	k := lib.Knobs{Keyed: 1, Zeroed: false}
	k.Assigned = 2
	k.Counted++
	k.Zeroed = false
	p := &k.Addressed
	k.Locked.Close()
	_, _, _ = p, k.Read, lib.Pair{1, 2}
}
