package lint

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

// Package is one loaded, type-checked package plus everything the passes
// need to inspect it: syntax, type information and suppression directives.
type Package struct {
	// Path is the full import path ("galois/internal/core").
	Path string
	// Rel is the module-relative path ("internal/core", "" for the root).
	Rel string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// directives indexes //detlint: comments by file and line.
	directives map[string]map[int][]directive
	// TypeErrors collects soft type-check errors. The linter keeps going —
	// `go build` is the gate for compilability — but callers may surface
	// them when findings look wrong.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports are resolved recursively from
// source and everything else goes through go/importer's source importer.
type Loader struct {
	ModRoot string // absolute directory containing go.mod
	ModPath string // module path declared in go.mod
	Fset    *token.FileSet

	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // import-cycle guard
	std     types.ImporterFrom
}

// NewLoader creates a loader for the module rooted at modRoot.
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModRoot: abs,
		ModPath: modPath,
		Fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     std,
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// the module tree, everything else from GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// LoadPath loads the module package with the given import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return l.load(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
}

// LoadDir loads the package in dir under the synthetic import path ipath
// (empty: derived from the directory's position in the module). Fixture
// trees outside the module proper pass an explicit path.
func (l *Loader) LoadDir(dir string, ipath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if ipath == "" {
		rel, err := filepath.Rel(l.ModRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
		}
		ipath = l.ModPath
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
	}
	return l.load(abs, ipath)
}

func (l *Loader) load(dir, ipath string) (*Package, error) {
	if p, ok := l.pkgs[ipath]; ok {
		return p, nil
	}
	if l.loading[ipath] {
		return nil, fmt.Errorf("lint: import cycle through %s", ipath)
	}
	l.loading[ipath] = true
	defer delete(l.loading, ipath)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	// A directory may mix package main with tooling stubs; keep the
	// majority package and drop strays rather than failing the load.
	files = majorityPackage(files)

	pkg := &Package{
		Path: ipath,
		Rel:  relPath(l.ModPath, ipath),
		Dir:  dir,
		Fset: l.Fset,
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, err := conf.Check(ipath, l.Fset, files, pkg.Info)
	if tpkg == nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", ipath, err)
	}
	pkg.Types = tpkg
	pkg.Files = files
	pkg.directives = indexDirectives(l.Fset, files)
	l.pkgs[ipath] = pkg
	return pkg, nil
}

// Loaded returns every package the loader has pulled in so far — the
// matched set plus all transitively imported module packages — sorted by
// import path. This is the natural "world" argument for RunProgram: even
// a partial pattern run can then resolve cross-package callees.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		out = append(out, l.pkgs[p])
	}
	return out
}

func relPath(modPath, ipath string) string {
	if ipath == modPath {
		return ""
	}
	return strings.TrimPrefix(ipath, modPath+"/")
}

// goSources lists buildable non-test Go files in dir, sorted for
// deterministic load order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func majorityPackage(files []*ast.File) []*ast.File {
	count := make(map[string]int)
	for _, f := range files {
		count[f.Name.Name]++
	}
	best := files[0].Name.Name
	for name, n := range count {
		if n > count[best] || (n == count[best] && name < best) {
			best = name
		}
	}
	var out []*ast.File
	for _, f := range files {
		if f.Name.Name == best {
			out = append(out, f)
		}
	}
	return out
}

// Match expands package patterns relative to the module root. Supported
// forms: "./...", "dir/...", "dir", "./dir". The "testdata" directory and
// hidden/underscore directories are always skipped, as the go tool does.
func (l *Loader) Match(patterns ...string) ([]*Package, error) {
	dirs, err := l.matchDirs(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		p, err := l.LoadDir(d, "")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// matchDirs expands go-tool patterns to package directories without
// parsing or type-checking anything.
func (l *Loader) matchDirs(patterns ...string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			srcs, err := goSources(p)
			if err != nil {
				return err
			}
			if len(srcs) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
