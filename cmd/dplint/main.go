// Command dplint runs the repository's static-analysis suite
// (internal/analysis) over the module and exits non-zero on any finding.
//
// The analyzers prove, at the AST/type level, the invariants the test suite
// otherwise only observes dynamically:
//
//	maporder      map iteration order must not reach returned/accumulated values without a sort
//	detsource     deterministic packages draw randomness only from internal/prng with explicit seeds
//	hotalloc      no closures in Outcome.Apply, no fmt on non-error hot paths
//	unsafeaudit   unsafe imports confined to the audited allowlist
//	registryname  registered built-in names canonical and unique per registry
//	unused        exported internal identifiers and methods referenced by non-test code
//
// Usage:
//
//	dplint [packages]
//
// where packages is "./..." (the default — every package of the module) or
// an explicit list of package directories. The unused analyzer reads the
// references of the whole module — cmd/, examples/ and the nested perfbench
// module included, tests excluded — whichever packages are named, so its
// verdict on a package does not depend on the command line. It counts a
// method as used when non-test code calls it, or when the method matches a
// method of an interface that non-test code mentions or that an imported
// standard-library package declares. Diagnostics
// print one per line as file:line:col: analyzer: message. A finding that is
// intentional is suppressed in place with an annotated reason:
//
//	//dplint:ok <analyzer> <reason>
//
// on the flagged line or the line above it. Annotations without a reason,
// naming an unknown analyzer, or suppressing nothing are themselves
// findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dplint [./... | package directories]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dplint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := loadTargets(loader, args)
	if err != nil {
		return err
	}
	diags, err := analysis.Run(pkgs, analysis.NewAnalyzers())
	if err != nil {
		return err
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "dplint: %d finding(s) in %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
	return nil
}

// loadTargets resolves the package arguments: no arguments or "./..." loads
// the whole module, anything else is a package directory.
func loadTargets(loader *analysis.Loader, args []string) ([]*analysis.Package, error) {
	if len(args) == 0 || len(args) == 1 && args[0] == "./..." {
		return loader.LoadAll()
	}
	var pkgs []*analysis.Package
	for _, arg := range args {
		pkg, err := loader.LoadDirDefault(arg)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
