package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, shared by every analyzer
// of a driver run.
type Package struct {
	// Path is the package's import path ("repro/internal/sim").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Root is the module root the package was loaded from.
	Root string
	// Fset positions every file of the run (shared across packages).
	Fset *token.FileSet
	// Files are the package's non-test files in file-name order, parsed with
	// comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression types, object resolutions
	// and constant values.
	Info *types.Info

	// loader loaded the package; an analyzer that needs the whole module
	// (unused) loads it through the same loader.
	loader *Loader
}

// RelFile returns the path of the file containing pos relative to the
// module root, for root-anchored allowlists (unsafeaudit).
func (p *Package) RelFile(pos token.Pos) string {
	file := p.Fset.Position(pos).Filename
	rel, err := filepath.Rel(p.Root, file)
	if err != nil {
		return file
	}
	return filepath.ToSlash(rel)
}

// Loader parses and type-checks the packages of one module using only the
// standard library: module-local imports resolve against the module tree on
// disk, standard-library imports through go/importer's source importer
// (which type-checks GOROOT/src — no compiled export data needed, so the
// loader works in a bare container with just the toolchain). Test files
// (_test.go) and testdata directories are excluded: the linted invariants
// govern shipping code, and tests are free to iterate maps or stopwatch with
// time.Now.
type Loader struct {
	// Root is the module root directory (the directory holding go.mod).
	Root string
	// ModPath is the module path declared in go.mod ("repro").
	ModPath string
	// Fset is the shared file set.
	Fset *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", abs, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    abs,
		ModPath: modPath,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Import implements types.Importer: module-local paths load from disk,
// "unsafe" maps to types.Unsafe, everything else goes to the source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModPath {
		return l.Root, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadDir parses and type-checks the package in dir under the given import
// path, memoized per loader.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:   importPath,
		Dir:    dir,
		Root:   l.Root,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// LoadDirDefault loads the package in dir under its natural import path
// (module path + module-relative directory).
func (l *Loader) LoadDirDefault(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	importPath := l.ModPath
	if rel != "." {
		importPath = l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return l.LoadDir(abs, importPath)
}

// LoadAll loads every package of the module (the "./..." pattern), skipping
// testdata, hidden and underscore-prefixed directories, in import-path
// order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		importPath := l.ModPath
		if dir != l.Root {
			rel, err := filepath.Rel(l.Root, dir)
			if err != nil {
				return nil, err
			}
			importPath = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// goFilesIn lists dir's non-test Go files in name order.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
