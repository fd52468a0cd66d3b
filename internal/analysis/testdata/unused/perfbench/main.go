// Command perfbench sits in a module of its own nested in the tree, as the
// repository's benchmark does; it still counts as a user.
package main

import "example.com/dp/internal/lib"

func main() { lib.UsedByPerfbench() }
