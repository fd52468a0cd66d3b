package main

import "example.com/dp/internal/lib"

func main() {
	lib.UsedByCmd()
	_ = lib.Box[int]{V: 1}
}
