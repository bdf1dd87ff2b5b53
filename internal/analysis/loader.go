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

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (or a synthesized one for testdata dirs)
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors are the soft type-check errors (the AST and most of Info
	// stay usable); rules still run, but callers should report them.
	TypeErrors []error
}

// Loader parses and type-checks packages of one module offline, with only
// the standard library's go/* packages: module-internal imports are
// type-checked from source recursively, standard-library imports come from
// the toolchain's export data.
type Loader struct {
	Fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at modRoot (the
// directory containing go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", modRoot, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", modRoot)
	}
	return &Loader{
		Fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.Default(),
		cache:   map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// ModRoot returns the loader's module root directory.
func (l *Loader) ModRoot() string { return l.modRoot }

// Import implements types.Importer: module-internal packages are
// type-checked from source, everything else resolves through the compiler's
// export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p := l.cache[path]; p != nil {
		return p, nil
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		if l.loading[path] {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		pkg, err := l.load(path, dir, false)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg.Pkg
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir with full type
// information, ready for rule runs. Test files are excluded.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPath(abs)
	return l.load(path, abs, true)
}

// importPath derives the import path of a directory inside the module.
func (l *Loader) importPath(dir string) string {
	if rel, err := filepath.Rel(l.modRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.ToSlash(dir)
}

func (l *Loader) load(path, dir string, wantInfo bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files}
	if wantInfo {
		pkg.Info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tp, err := conf.Check(path, l.Fset, files, pkg.Info)
	pkg.Pkg = tp
	if err != nil && tp == nil {
		return nil, err
	}
	return pkg, nil
}

// Discover expands target patterns into package directories. Supported
// forms: "./..." (every package under the module root), "dir/..." (every
// package under dir) and plain directory paths. Directories named testdata,
// vendor, or starting with "." or "_" are skipped by the recursive forms,
// matching the go tool's convention.
func (l *Loader) Discover(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := pat, false
		if pat == "..." {
			root, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root, recursive = rest, true
			if root == "" {
				root = "."
			}
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != abs && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				add(filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// FindModRoot walks up from dir to the nearest directory containing go.mod.
func FindModRoot(dir string) (string, error) {
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
