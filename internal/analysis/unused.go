package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// NewUnused returns the unused analyzer: every exported package-level
// function, type, variable and constant of an internal package must be
// referenced by some non-test code of the module other than its own
// declaration and its methods. Tests and test-helper packages are not users,
// so API kept alive only by its own tests is flagged; cmd/, examples/ and
// perfbench/ (a module of its own nested in the tree, which LoadAll walks
// like any other directory) are. Methods are out of scope, because interface
// satisfaction hides their callers, and so are the public dining API (the
// library's surface) and test-helper packages (a last import-path element
// ending in "test", or a testdata tree). Each pass reports one layer of dead
// API: an identifier used only by another flagged one is flagged once that
// one is gone.
//
// Run applies analyzers package by package, but this verdict depends on
// the whole module: on its first in-scope package the analyzer loads every
// package through that package's loader and records every reference once,
// so the result for a package never depends on which packages the command
// line named.
func NewUnused() *Analyzer {
	uses := map[*Loader]map[types.Object]bool{}
	a := &Analyzer{
		Name: "unused",
		Doc:  "exported internal identifiers are referenced by non-test code",
	}
	a.Run = func(pass *Pass) error {
		l := pass.Pkg.loader
		rel, ok := strings.CutPrefix(pass.Pkg.Path, l.ModPath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") || isTestHelper(rel) {
			return nil
		}
		used, ok := uses[l]
		if !ok {
			var err error
			if used, err = moduleUses(l); err != nil {
				return err
			}
			uses[l] = used
		}
		scope := pass.Pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || used[obj] {
				continue
			}
			pass.Reportf(obj.Pos(), "exported %s %s has no non-test use outside its own declaration; delete it, or move a shared test seam into a test-helper package", objectKind(obj), name)
		}
		return nil
	}
	return a
}

// isTestHelper reports whether a module-relative package path is test
// support rather than shipping code.
func isTestHelper(rel string) bool {
	elems := strings.Split(rel, "/")
	return slices.Contains(elems, "testdata") || strings.HasSuffix(elems[len(elems)-1], "test")
}

// moduleUses loads every package of l's module and returns the package-level
// objects that non-test, non-helper code references outside their own
// declarations.
func moduleUses(l *Loader) (map[types.Object]bool, error) {
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		if rel, ok := strings.CutPrefix(pkg.Path, l.ModPath+"/"); ok && isTestHelper(rel) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					markUses(pkg, d, funcOwner(pkg, d), used)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						markUses(pkg, spec, specOwners(pkg, spec), used)
					}
				}
			}
		}
	}
	return used, nil
}

// markUses records every package-level object referenced inside node,
// except the owners whose declaration node is.
func markUses(pkg *Package, node ast.Node, owners []types.Object, used map[types.Object]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() || slices.Contains(owners, obj) {
			return true
		}
		used[obj] = true
		return true
	})
}

// funcOwner returns the object a function declaration belongs to: the
// function itself, or a method's receiver type.
func funcOwner(pkg *Package, d *ast.FuncDecl) []types.Object {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return []types.Object{pkg.Info.Defs[d.Name]}
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return []types.Object{pkg.Info.Uses[x]}
		default:
			return nil
		}
	}
}

// specOwners returns the objects a type or value spec declares.
func specOwners(pkg *Package, spec ast.Spec) []types.Object {
	switch s := spec.(type) {
	case *ast.TypeSpec:
		return []types.Object{pkg.Info.Defs[s.Name]}
	case *ast.ValueSpec:
		owners := make([]types.Object, len(s.Names))
		for i, name := range s.Names {
			owners[i] = pkg.Info.Defs[name]
		}
		return owners
	}
	return nil
}

func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}
