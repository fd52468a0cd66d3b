package main

import "example.com/dp/internal/lib"

func main() {
	lib.UsedByExample()
	_ = lib.Map(3)
}
