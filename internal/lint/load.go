package lint

// load.go is opmlint's package loader: a small, stdlib-only stand-in
// for golang.org/x/tools/go/packages. It discovers the module root,
// expands "./..."-style patterns, parses every non-test file, and
// type-checks packages in dependency order. Module-internal imports
// are resolved by mapping the import path onto a directory under the
// module root; standard-library imports go through go/importer with
// export data first and a from-source fallback, so the tool works in
// hermetic containers that cannot fetch modules or tools.

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
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// World is one loaded-and-type-checked view of the module: every
// requested package plus the module-internal closure they import.
type World struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // absolute module root directory
	Pkgs   map[string]*Package

	// interprocedural analyses, built lazily on first use and shared by
	// every check of the run (and, via the world cache, across runs).
	ipaOnce sync.Once
	ipaVal  *ipa
}

// Package is one parsed and type-checked package.
type Package struct {
	ImportPath string
	Name       string
	Dir        string // absolute
	Files      []*File
	Types      *types.Package
	Info       *types.Info
	// Requested marks packages named by the load patterns; only these
	// are linted (imports pulled in for type-checking are not).
	Requested bool
}

// File is one parsed source file of a package.
type File struct {
	Rel string // module-root-relative path, forward slashes
	AST *ast.File
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModule walks up from dir to the enclosing go.mod and returns
// the absolute module root and the module path.
func FindModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			m := moduleRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
			}
			return d, string(m[1]), nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// worldCache memoizes loaded worlds per (base, patterns) for the
// process lifetime. One `go test ./internal/lint` run loads the module
// many times over (self-check, fixtures, directive cases, benchmarks);
// type-checking the tree — and especially the from-source stdlib
// fallback — dominated that wall time before the cache. Worlds are
// immutable after load (directives are re-collected per run), so
// sharing is safe.
var worldCache = struct {
	sync.Mutex
	m map[string]*World
}{m: map[string]*World{}}

func loadCached(base string, patterns []string) (*World, error) {
	abs, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	key := abs + "\x00" + strings.Join(patterns, "\x00")
	worldCache.Lock()
	w, ok := worldCache.m[key]
	worldCache.Unlock()
	if ok {
		return w, nil
	}
	w, err = Load(base, patterns)
	if err != nil {
		return nil, err
	}
	worldCache.Lock()
	worldCache.m[key] = w
	worldCache.Unlock()
	return w, nil
}

// Load parses and type-checks the packages matched by patterns.
// Patterns are directories relative to base (or absolute), with a
// trailing "/..." walking the subtree; testdata, vendor and hidden
// directories are skipped during walks but may be named explicitly.
// Files whose //go:build constraint is false for the host are skipped,
// as the go tool would.
func Load(base string, patterns []string) (*World, error) {
	root, module, err := FindModule(base)
	if err != nil {
		return nil, err
	}
	w := &World{
		Fset:   token.NewFileSet(),
		Module: module,
		Root:   root,
		Pkgs:   map[string]*Package{},
	}
	dirs, err := w.expand(base, patterns)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if err := w.addDir(d, true); err != nil {
			return nil, err
		}
	}
	if err := w.closure(); err != nil {
		return nil, err
	}
	order, err := w.toposort()
	if err != nil {
		return nil, err
	}
	for _, p := range order {
		if err := w.typecheck(p); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Requested returns the linted packages sorted by import path.
func (w *World) Requested() []*Package {
	var out []*Package
	for _, p := range w.Pkgs {
		if p.Requested {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// Internal reports whether path names a package inside this module.
func (w *World) Internal(path string) bool {
	return path == w.Module || strings.HasPrefix(path, w.Module+"/")
}

// expand resolves patterns to absolute package directories.
func (w *World) expand(base string, patterns []string) ([]string, error) {
	absBase, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		walk := false
		if strings.HasSuffix(pat, "/...") {
			walk = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		d := pat
		if !filepath.IsAbs(d) {
			d = filepath.Join(absBase, d)
		}
		d = filepath.Clean(d)
		if d != w.Root && !strings.HasPrefix(d, w.Root+string(filepath.Separator)) {
			return nil, fmt.Errorf("lint: pattern %q resolves outside module root %s", pat, w.Root)
		}
		if !walk {
			if !hasGoFiles(d) {
				return nil, fmt.Errorf("lint: no Go files in %s", d)
			}
			add(d)
			continue
		}
		err := filepath.WalkDir(d, func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !de.IsDir() {
				return nil
			}
			name := de.Name()
			if path != d && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory under the root to its
// import path.
func (w *World) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(w.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return w.Module, nil
	}
	return w.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module-internal import path to its directory.
func (w *World) dirFor(path string) string {
	if path == w.Module {
		return w.Root
	}
	return filepath.Join(w.Root, filepath.FromSlash(strings.TrimPrefix(path, w.Module+"/")))
}

// addDir parses the package in dir (non-test files only). Already
// loaded packages are upgraded to requested when asked again.
func (w *World) addDir(dir string, requested bool) error {
	ipath, err := w.importPathFor(dir)
	if err != nil {
		return err
	}
	if p, ok := w.Pkgs[ipath]; ok {
		p.Requested = p.Requested || requested
		return nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	p := &Package{ImportPath: ipath, Dir: dir, Requested: requested}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(w.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: parsing %s: %w", full, err)
		}
		if !buildSelected(f) {
			continue
		}
		if p.Name == "" {
			p.Name = f.Name.Name
		} else if p.Name != f.Name.Name {
			return fmt.Errorf("lint: %s: packages %q and %q in one directory", dir, p.Name, f.Name.Name)
		}
		rel, err := filepath.Rel(w.Root, full)
		if err != nil {
			return err
		}
		p.Files = append(p.Files, &File{Rel: filepath.ToSlash(rel), AST: f})
	}
	if len(p.Files) == 0 {
		return fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	w.Pkgs[ipath] = p
	return nil
}

// buildSelected reports whether f's //go:build constraint (if any)
// evaluates true for the host: GOOS/GOARCH and go1.* version tags are
// satisfied, every other tag (including the conventional "ignore") is
// not, mirroring `go build` without -tags.
func buildSelected(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				// An unparseable constraint excludes the file, which is
				// the conservative reading for a linter.
				return false
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH || strings.HasPrefix(tag, "go1")
			})
		}
	}
	return true
}

// imports returns the module-internal import paths of p, sorted.
func (w *World) imports(p *Package) []string {
	seen := map[string]bool{}
	for _, f := range p.Files {
		for _, imp := range f.AST.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if w.Internal(path) {
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for path := range seen {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// closure loads every module-internal package transitively imported
// by the already loaded set, so type-checking can resolve them.
func (w *World) closure() error {
	for {
		var missing []string
		for _, p := range w.Pkgs {
			for _, dep := range w.imports(p) {
				if _, ok := w.Pkgs[dep]; !ok {
					missing = append(missing, dep)
				}
			}
		}
		if len(missing) == 0 {
			return nil
		}
		sort.Strings(missing)
		for _, path := range missing {
			if _, ok := w.Pkgs[path]; ok {
				continue
			}
			if err := w.addDir(w.dirFor(path), false); err != nil {
				return fmt.Errorf("lint: loading import %q: %w", path, err)
			}
		}
	}
}

// toposort orders packages so every module-internal import precedes
// its importer.
func (w *World) toposort() ([]*Package, error) {
	paths := make([]string, 0, len(w.Pkgs))
	for path := range w.Pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = visiting
		for _, dep := range w.imports(w.Pkgs[path]) {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, w.Pkgs[path])
		return nil
	}
	for _, path := range paths {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typecheck runs go/types over one package. Dependencies must already
// be checked (see toposort).
func (w *World) typecheck(p *Package) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var terrs []error
	cfg := &types.Config{
		Importer: (*worldImporter)(w),
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		files[i] = f.AST
	}
	tpkg, _ := cfg.Check(p.ImportPath, w.Fset, files, info)
	if len(terrs) > 0 {
		msgs := make([]string, 0, len(terrs))
		for _, e := range terrs {
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("lint: type-checking %s:\n\t%s", p.ImportPath, strings.Join(msgs, "\n\t"))
	}
	p.Types, p.Info = tpkg, info
	return nil
}

// worldImporter resolves imports during type-checking: module-internal
// paths from the loaded world, everything else from the standard
// library importers.
type worldImporter World

func (wi *worldImporter) Import(path string) (*types.Package, error) {
	w := (*World)(wi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if w.Internal(path) {
		p, ok := w.Pkgs[path]
		if !ok || p.Types == nil {
			return nil, fmt.Errorf("lint: internal package %q not loaded", path)
		}
		return p.Types, nil
	}
	return sharedStd.Import(path)
}

// stdImporter resolves standard-library packages: compiled export
// data when the toolchain provides it, falling back to type-checking
// the package from $GOROOT source. Results are cached.
type stdImporter struct {
	mu    sync.Mutex
	cache map[string]*types.Package
	gc    types.Importer
	src   types.Importer
}

// sharedStd is the process-wide standard-library importer. Stdlib
// packages carry no positions any check reports on, so every World —
// repo self-check, fixture packages, scratch test modules — shares one
// typed set instead of re-checking fmt/net/http from source per load.
var sharedStd = newStdImporter(token.NewFileSet())

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		cache: map[string]*types.Package{},
		gc:    importer.ForCompiler(fset, "gc", nil),
		src:   importer.ForCompiler(fset, "source", nil),
	}
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.cache[path]; ok {
		return p, nil
	}
	p, err := s.gc.Import(path)
	if err != nil {
		p, err = s.src.Import(path)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: importing %q: %w", path, err)
	}
	s.cache[path] = p
	return p, nil
}
