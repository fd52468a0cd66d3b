package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// NewUnused returns the unused analyzer: every exported package-level
// function, type, variable and constant of an internal package, and every
// exported method of a named type declared there, must be referenced by some
// non-test code of the module other than its own declaration (and, for a
// package-level identifier, its methods). Tests and test-helper packages are
// not users, so API kept alive only by its own tests is flagged; cmd/,
// examples/, dining and perfbench/ (a module of its own nested in the tree,
// which LoadAll walks like any other directory) are. A method is also used
// when its name and signature are identical to a method of an interface that
// counts as used, because interface satisfaction hides its callers: an
// interface non-test module code mentions, named or anonymous (a type
// assertion to interface{ FaultSpec() string } keeps every FaultSpec alive),
// or one a standard-library package of the module's import closure declares
// (fmt.Stringer, error, types.Importer). The public dining API (the
// library's surface) and test-helper packages (a last import-path element
// ending in "test", or a testdata tree) are out of scope. Each pass reports
// one layer of dead API: an identifier used only by another flagged one is
// flagged once that one is gone.
//
// Run applies analyzers package by package, but this verdict depends on
// the whole module: on its first in-scope package the analyzer loads every
// package through that package's loader and records every reference once,
// so the result for a package never depends on which packages the command
// line named.
func NewUnused() *Analyzer {
	uses := map[*Loader]*moduleUse{}
	a := &Analyzer{
		Name: "unused",
		Doc:  "exported internal identifiers and methods are referenced by non-test code",
	}
	a.Run = func(pass *Pass) error {
		l := pass.Pkg.loader
		rel, ok := strings.CutPrefix(pass.Pkg.Path, l.ModPath+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") || isTestHelper(rel) {
			return nil
		}
		u, ok := uses[l]
		if !ok {
			var err error
			if u, err = moduleUses(l); err != nil {
				return err
			}
			uses[l] = u
		}
		scope := pass.Pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !u.objs[obj] {
				pass.Reportf(obj.Pos(), "exported %s %s has no non-test use outside its own declaration; delete it, or move a shared test seam into a test-helper package", objectKind(obj), name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() && !u.methodUsed(m) {
					pass.Reportf(m.Pos(), "exported method %s.%s has no non-test use outside its own declaration and matches no used interface; delete it, and give tests that need it an unexported helper", name, m.Name())
				}
			}
		}
		return nil
	}
	return a
}

// moduleUse is what non-test, non-helper code of one module uses: the
// package-level objects and methods it references, and the methods, by
// name, of every interface that counts as used.
type moduleUse struct {
	objs   map[types.Object]bool
	ifaces map[string][]*types.Func
	seen   map[*types.Interface]bool
}

// methodUsed reports whether m is referenced, or shares its name and
// signature with a method of a used interface.
func (u *moduleUse) methodUsed(m *types.Func) bool {
	return u.objs[m] || slices.ContainsFunc(u.ifaces[m.Name()], func(im *types.Func) bool {
		return types.Identical(im.Type(), m.Type())
	})
}

// addInterface records the methods of t's underlying interface, if it is
// one; a type parameter contributes its constraint.
func (u *moduleUse) addInterface(t types.Type) {
	if t == nil {
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || u.seen[iface] {
		return
	}
	u.seen[iface] = true
	for m := range iface.Methods() {
		u.ifaces[m.Name()] = append(u.ifaces[m.Name()], m)
	}
}

// addScopeInterfaces records every interface type a scope declares.
func (u *moduleUse) addScopeInterfaces(s *types.Scope) {
	for _, name := range s.Names() {
		if tn, ok := s.Lookup(name).(*types.TypeName); ok {
			u.addInterface(tn.Type())
		}
	}
}

// isTestHelper reports whether a module-relative package path is test
// support rather than shipping code.
func isTestHelper(rel string) bool {
	elems := strings.Split(rel, "/")
	return slices.Contains(elems, "testdata") || strings.HasSuffix(elems[len(elems)-1], "test")
}

// moduleUses loads every package of l's module and returns what its non-test,
// non-helper code uses: the objects it references outside their own
// declarations, the interfaces it mentions, and the interfaces the
// standard-library packages it imports, directly or not, declare.
func moduleUses(l *Loader) (*moduleUse, error) {
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	u := &moduleUse{objs: map[types.Object]bool{}, ifaces: map[string][]*types.Func{}, seen: map[*types.Interface]bool{}}
	u.addScopeInterfaces(types.Universe)
	imported := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		if _, local := l.dirFor(p.Path()); !local {
			u.addScopeInterfaces(p.Scope())
		}
		for _, q := range p.Imports() {
			addStd(q)
		}
	}
	for _, pkg := range pkgs {
		if rel, ok := strings.CutPrefix(pkg.Path, l.ModPath+"/"); ok && isTestHelper(rel) {
			continue
		}
		addStd(pkg.Types)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					u.markUses(pkg, d, funcOwners(pkg, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						u.markUses(pkg, spec, specOwners(pkg, spec))
					}
				}
			}
		}
	}
	return u, nil
}

// markUses records every package-level object and method referenced inside
// node, except the owners whose declaration node is, and every interface
// type an expression inside node has.
func (u *moduleUse) markUses(pkg *Package, node ast.Node, owners []types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			u.addInterface(pkg.Info.TypeOf(e))
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		method := false
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			method = fn.Signature().Recv() != nil
		}
		if obj == nil || obj.Pkg() == nil || slices.Contains(owners, obj) {
			return true
		}
		if method || obj.Parent() == obj.Pkg().Scope() {
			u.objs[obj] = true
		}
		return true
	})
}

// funcOwners returns the objects a function declaration belongs to: the
// function itself, and a method's receiver type.
func funcOwners(pkg *Package, d *ast.FuncDecl) []types.Object {
	self := pkg.Info.Defs[d.Name]
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return []types.Object{self}
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
			return []types.Object{self, pkg.Info.Uses[x]}
		default:
			return []types.Object{self}
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
