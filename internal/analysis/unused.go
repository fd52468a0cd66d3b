package analysis

import (
	"go/ast"
	"go/token"
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
// counts as used and its type T, or *T, implements that interface, because
// interface satisfaction hides its callers: an interface non-test module
// code mentions, named or anonymous (a type assertion to interface{
// FaultSpec() string } keeps every FaultSpec alive), or one a
// standard-library package of the module's import closure declares
// (fmt.Stringer, error, types.Importer). A method that merely shares a name
// and signature with an interface its type does not implement (a Len() int
// on a type that is no sort.Interface) is not kept alive. An exported field
// of a struct type declared there must be set by non-test code to something
// other than a constant zero or nil — by a composite-literal element, an
// assignment or ++/--, &x.F, or a pointer-receiver method call on x.F —
// because a field nothing sets is a knob nothing turns; embedded fields and
// tagged fields (set by reflection) are exempt. The public dining
// API (the library's surface) and test-helper packages (a last import-path
// element ending in "test", or a testdata tree) are out of scope. Each pass reports
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
		Doc:  "exported internal identifiers and methods are referenced, and exported struct fields set, by non-test code",
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
				if m.Exported() && !u.methodUsed(named, m) {
					pass.Reportf(m.Pos(), "exported method %s.%s has no non-test use outside its own declaration and matches no used interface; delete it, and give tests that need it an unexported helper", name, m.Name())
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" && !u.set[f] {
					pass.Reportf(f.Pos(), "exported field %s.%s is never set by non-test code; delete it and the code that reads it, or annotate a test instrument", name, f.Name())
				}
			}
		}
		return nil
	}
	return a
}

// moduleUse is what non-test, non-helper code of one module uses: the
// package-level objects and methods it references, the struct fields it
// sets, and the methods, by name, of every interface that counts as used.
type moduleUse struct {
	objs   map[types.Object]bool
	set    map[*types.Var]bool
	ifaces map[string][]ifaceMethod
	seen   map[*types.Interface]bool
}

// ifaceMethod is one method of a used interface.
type ifaceMethod struct {
	fn    *types.Func
	iface *types.Interface
}

// methodUsed reports whether m, a method of named, is referenced, or shares
// its name and signature with a method of a used interface that named or
// *named implements.
func (u *moduleUse) methodUsed(named *types.Named, m *types.Func) bool {
	return u.objs[m] || slices.ContainsFunc(u.ifaces[m.Name()], func(im ifaceMethod) bool {
		return types.Identical(im.fn.Type(), m.Type()) &&
			(types.Implements(named, im.iface) || types.Implements(types.NewPointer(named), im.iface))
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
		u.ifaces[m.Name()] = append(u.ifaces[m.Name()], ifaceMethod{m, iface})
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
	u := &moduleUse{objs: map[types.Object]bool{}, set: map[*types.Var]bool{}, ifaces: map[string][]ifaceMethod{}, seen: map[*types.Interface]bool{}}
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
// node, except the owners whose declaration node is, every struct field set
// inside node, and every interface type an expression inside node has.
func (u *moduleUse) markUses(pkg *Package, node ast.Node, owners []types.Object) {
	ast.Inspect(node, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			u.addInterface(pkg.Info.TypeOf(e))
		}
		u.markSets(pkg.Info, n)
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

// markSets records the struct fields node sets: a composite-literal
// element, the target of an assignment or ++/--, the operand of &, or the
// operand of a pointer-receiver method.
func (u *moduleUse) markSets(info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.TypeOf(n)
		if p, ok := t.(*types.Pointer); ok { // the elided &T of a []*T element
			t = p.Elem()
		}
		st, _ := t.Underlying().(*types.Struct)
		for i, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					u.setBy(info, info.Uses[id], kv.Value)
				}
			} else if st != nil {
				u.setBy(info, st.Field(i), elt)
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			var value ast.Expr
			if len(n.Lhs) == len(n.Rhs) {
				value = n.Rhs[i]
			}
			u.setBy(info, fieldOf(info, lhs), value)
		}
	case *ast.IncDecStmt:
		u.setBy(info, fieldOf(info, n.X), nil)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			u.setBy(info, fieldOf(info, n.X), nil)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			_, ptrRecv := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer)
			_, ptrOperand := info.TypeOf(n.X).Underlying().(*types.Pointer)
			if ptrRecv && !ptrOperand {
				u.setBy(info, fieldOf(info, n.X), nil)
			}
		}
	}
}

// setBy records obj, when it is a struct field, as set, unless value is a
// constant zero or nil; a field of a generic type is recorded by its origin.
func (u *moduleUse) setBy(info *types.Info, obj types.Object, value ast.Expr) {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || value != nil && isZero(info.Types[value]) {
		return
	}
	u.set[v.Origin()] = true
}

// fieldOf returns the field a selector expression x.F denotes, or nil.
func fieldOf(info *types.Info, e ast.Expr) types.Object {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// isZero reports whether an expression is nil or a constant zero value
// (false, 0, "").
func isZero(tv types.TypeAndValue) bool {
	return tv.IsNil() || tv.Value != nil && slices.Contains([]string{"false", "0", `""`}, tv.Value.ExactString())
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
