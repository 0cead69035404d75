package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	Path  string // import path, e.g. madeus/internal/wal
	Fset  *token.FileSet
	Files []*ast.File

	Types   *types.Package
	Info    *types.Info
	TypeErr error // first type-checking error, if any

	imports []string // module-internal import paths
	checked bool     // type-check attempted (success or not)
}

// loaderCache shares parse and type-check work across Load calls in one
// process: each package directory is parsed and type-checked at most once,
// and the stdlib source importer (by far the dominant cost — it compiles
// the imported standard library from source) is built once. madeusvet
// invokes Load once per run, so the cache mostly pays off in the analysis
// test suite, which loads the fixture module dozens of times; CacheStats
// exposes the counters the timing test asserts on.
var loaderCache = struct {
	mu     sync.Mutex
	fset   *token.FileSet
	std    types.ImporterFrom
	byDir  map[string]*Package
	byPath map[string]*Package

	parsed  int // packages parsed (cache misses)
	hits    int // packages served from cache
	checked int // packages type-checked
}{
	fset:   token.NewFileSet(),
	byDir:  make(map[string]*Package),
	byPath: make(map[string]*Package),
}

// CacheStats reports how many package loads were served from the
// process-wide cache versus parsed and type-checked fresh.
func CacheStats() (parsed, cacheHits, typeChecked int) {
	loaderCache.mu.Lock()
	defer loaderCache.mu.Unlock()
	return loaderCache.parsed, loaderCache.hits, loaderCache.checked
}

// Load parses and type-checks the packages matched by patterns, rooted at
// dir (the directory holding go.mod). Patterns follow the go tool's shape:
// "./..." walks everything; "./internal/wal" is one package. Test files are
// skipped, and so are files excluded by the default build tags (notably
// `invariants` and `faultinject`): madeusvet checks the production build.
//
// Module-internal dependencies of the matched packages are loaded and
// type-checked too (once each, shared through a process-wide cache), so a
// narrow `madeusvet ./internal/core` run resolves imports exactly like a
// full `./...` run. Only the pattern-matched packages are returned.
// Standard-library imports compile from stdlib source (go/importer "source"
// mode), so the loader needs no pre-built export data and no external
// dependencies. A package that does not type-check is an error: the call
// graph needs every call resolved, and `go build` rejects such a tree
// anyway.
func Load(dir string, patterns ...string) ([]*Package, error) {
	loaderCache.mu.Lock()
	defer loaderCache.mu.Unlock()

	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			rec, pat = true, "."
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(dir, base)
		}
		if !rec {
			dirs[filepath.Clean(base)] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			dirs[filepath.Clean(p)] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var targets []*Package
	var loaded []*Package // targets + dependency closure, this call
	for _, d := range sortedKeys(dirs) {
		pkg, err := loadPackage(d, modRoot, modPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			targets = append(targets, pkg)
			loaded = append(loaded, pkg)
		}
	}

	// Pull in the module-internal dependency closure so every target
	// type-checks against real signatures. Dependencies parsed here are
	// cached but not returned.
	queue := append([]*Package(nil), targets...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, ip := range p.imports {
			if loaderCache.byPath[ip] != nil {
				continue
			}
			depDir := filepath.Join(modRoot, filepath.FromSlash(strings.TrimPrefix(ip, modPath+"/")))
			if ip == modPath {
				depDir = modRoot
			}
			dep, err := loadPackage(depDir, modRoot, modPath)
			if err != nil || dep == nil {
				continue // missing dep surfaces as a type error on the importer
			}
			loaded = append(loaded, dep)
			queue = append(queue, dep)
		}
	}

	typeCheck(loaderCache.fset, modPath, loaded)
	for _, p := range loaded {
		if p.TypeErr != nil {
			return nil, fmt.Errorf("analysis: %s does not type-check: %w", p.Path, p.TypeErr)
		}
	}
	return targets, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// loadPackage returns the cached package for dir or parses it fresh.
// Must hold loaderCache.mu.
func loadPackage(dir, modRoot, modPath string) (*Package, error) {
	if p, ok := loaderCache.byDir[dir]; ok {
		loaderCache.hits++
		return p, nil
	}
	pkg, err := parseDir(loaderCache.fset, dir, modRoot, modPath)
	if err != nil || pkg == nil {
		return nil, err
	}
	loaderCache.parsed++
	loaderCache.byDir[dir] = pkg
	loaderCache.byPath[pkg.Path] = pkg
	return pkg, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
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
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// parseDir parses the production (non-test, default-tag) files of one
// directory. It returns nil when the directory holds none.
func parseDir(fset *token.FileSet, dir, modRoot, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		if !inDefaultBuild(string(src)) {
			continue
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(modRoot, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Fset: fset, Files: files}
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				pkg.imports = append(pkg.imports, ip)
			}
		}
	}
	return pkg, nil
}

// inDefaultBuild evaluates a file's //go:build (or // +build) line against
// the default production tag set: GOOS, GOARCH, the compiler, and every
// supported go1.N release tag — and nothing else, so files gated on custom
// tags like `invariants` are left out.
func inDefaultBuild(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if e, err := constraint.Parse(trimmed); err == nil {
				return e.Eval(defaultTag)
			}
			continue
		}
		break // first non-comment, non-blank line: constraints must precede it
	}
	return true
}

func defaultTag(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == runtime.Compiler || tag == "unix" {
		return true
	}
	if rest, ok := strings.CutPrefix(tag, "go1."); ok {
		if n, err := strconv.Atoi(rest); err == nil {
			cur := strings.TrimPrefix(runtime.Version(), "go1.")
			if i := strings.IndexByte(cur, '.'); i >= 0 {
				cur = cur[:i]
			}
			if c, err := strconv.Atoi(cur); err == nil {
				return n <= c
			}
		}
	}
	return false
}

// moduleImporter resolves module-internal imports from the loaded package
// set and everything else from stdlib source.
type moduleImporter struct {
	modPath string
	std     types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		p := loaderCache.byPath[path]
		if p == nil || p.Types == nil {
			return nil, fmt.Errorf("analysis: internal import %q not loaded", path)
		}
		return p.Types, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// typeCheck type-checks the not-yet-checked packages among pkgs in
// dependency order, sharing the process-wide importer so stdlib packages
// are compiled once. Must hold loaderCache.mu.
func typeCheck(fset *token.FileSet, modPath string, pkgs []*Package) {
	if loaderCache.std == nil {
		loaderCache.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	}
	imp := &moduleImporter{modPath: modPath, std: loaderCache.std}

	// Topological order over module-internal imports (cycles are a compile
	// error anyway; visit order falls back to as-listed).
	var order []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.Path] {
		case 1, 2:
			return
		}
		state[p.Path] = 1
		for _, dep := range p.imports {
			if d := loaderCache.byPath[dep]; d != nil {
				visit(d)
			}
		}
		state[p.Path] = 2
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}

	for _, p := range order {
		if p.checked {
			continue
		}
		p.checked = true
		loaderCache.checked++
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if p.TypeErr == nil {
					p.TypeErr = err
				}
			},
		}
		tpkg, err := conf.Check(p.Path, fset, p.Files, info)
		if err != nil && p.TypeErr == nil {
			p.TypeErr = err
		}
		p.Types = tpkg
		p.Info = info
	}
}

// depPackages returns the cached module-internal dependency closure of
// pkgs (excluding pkgs themselves). The call graph uses it so summaries of
// target packages see through calls into their dependencies.
func depPackages(pkgs []*Package) []*Package {
	loaderCache.mu.Lock()
	defer loaderCache.mu.Unlock()
	seen := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	var out []*Package
	queue := append([]*Package(nil), pkgs...)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, ip := range p.imports {
			if seen[ip] {
				continue
			}
			seen[ip] = true
			if d := loaderCache.byPath[ip]; d != nil {
				out = append(out, d)
				queue = append(queue, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
