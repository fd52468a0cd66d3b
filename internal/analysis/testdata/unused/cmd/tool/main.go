package main

import (
	"fmt"

	"example.com/dp/internal/lib"
)

func main() {
	lib.UsedByCmd()
	_ = lib.Box[int]{V: 1}
	lib.Svc{}.CalledByCmd()
	lib.Wrapper{}.Promoted()
	fmt.Println(lib.Svc{})
}
