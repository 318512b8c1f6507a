package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path, e.g. "repro/internal/trace".
	Path string
	// Module is the module path from go.mod (shared by every package).
	Module string
	// Dir is the absolute directory the package was loaded from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-local import paths are resolved recursively from
// source, everything else (the standard library) is delegated to the
// compiler-independent source importer.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	Fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // import path -> loaded package
	busy map[string]bool     // cycle guard during loadDir
}

// NewLoader returns a loader for the module rooted at or above dir: dir and
// its parents are searched for a go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Root:   root,
		Module: module,
		Fset:   fset,
		std:    std,
		pkgs:   make(map[string]*Package),
		busy:   make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and parses its module
// path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

// Load resolves patterns of the usual go-command shapes — "./cmd/repolint",
// "./internal/...", "./..." — into type-checked packages. Directories named
// "testdata", "out", or starting with "." are skipped during recursive
// walks unless the pattern itself points into them.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var out []*Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "" {
			pat = "./"
		}
		pat = strings.TrimPrefix(pat, "./")
		start := filepath.Join(l.Root, filepath.FromSlash(pat))
		dirs := []string{start}
		if recursive {
			var err error
			dirs, err = walkDirs(start)
			if err != nil {
				return nil, err
			}
		}
		for _, dir := range dirs {
			names, err := goFileNames(dir)
			if err != nil {
				return nil, err
			}
			if len(names) == 0 {
				if !recursive {
					return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
				}
				continue
			}
			p, err := l.loadDir(dir)
			if err != nil {
				return nil, err
			}
			if !seen[p.Path] {
				seen[p.Path] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walkDirs lists start and every subdirectory, pruning VCS, output, and
// testdata directories (testdata stays prunable so fixture packages with
// deliberate findings do not fail "./..." runs; name them explicitly to
// lint them). A subdirectory holding its own go.mod is another module,
// so it is pruned too, as the go command's "./..." prunes it.
func walkDirs(start string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != start {
			name := d.Name()
			if name == "testdata" || name == "out" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// goFileNames lists the non-test Go files in dir that satisfy the default
// build configuration, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("lint: no such directory %s", dir)
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if !buildableSource(string(src)) {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// buildableSource reports whether the file's //go:build constraint (if any,
// scanned from the lines preceding the package clause) is satisfied under
// the default configuration: GOOS, GOARCH, and "gc" are the only true tags,
// so files gated on custom tags such as repro_sanitize are excluded.
func buildableSource(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc"
		})
	}
	return true
}

// loadDir parses and type-checks the package in dir, caching by import
// path.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.Root)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	names, err := goFileNames(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}
	files := make([]*ast.File, 0, len(names))
	srcs := make(map[string]string, len(names))
	for _, name := range names {
		fn := filepath.Join(abs, name)
		data, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		srcs[fn] = string(data)
		f, err := parser.ParseFile(l.Fset, fn, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, abs, files)
}

// LoadSource type-checks a package built from in-memory files: the fixture
// entry point for analyzer tests. files maps file name to source text.
// The importPath chooses the package's identity, so fixtures can pose as
// any part of the module tree (e.g. "repro/internal/workload/fixture") to
// exercise path-scoped analyzers. The package is not cached and must not
// collide with a real import path other packages resolve.
func (l *Loader) LoadSource(importPath string, files map[string]string) (*Package, error) {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	parsed := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	return l.checkUncached(importPath, l.Root, parsed)
}

func (l *Loader) check(path, dir string, files []*ast.File) (*Package, error) {
	p, err := l.checkUncached(path, dir, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) checkUncached(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Module: l.Module,
		Dir:    dir,
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load from
// source within the module; everything else goes to the stdlib source
// importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		p, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, 0)
}
