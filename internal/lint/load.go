package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strings"
)

// Loader discovers packages with `go list -json` and type-checks them from
// source. Imports are resolved recursively: module-local packages are
// loaded with full ASTs and type information (so analyzers share one
// consistent object identity across the whole module), and everything else
// — the standard library, including its vendored golang.org/x deps — is
// type-checked from GOROOT source. Only the standard library is used; no
// export data, no external tooling.
type Loader struct {
	Fset *token.FileSet

	// modulePath/moduleDir anchor module-local import resolution. When
	// testRoot is set instead (the testdata harness), every non-stdlib
	// import resolves GOPATH-style under that directory.
	modulePath string
	moduleDir  string
	testRoot   string

	ctxt     build.Context
	pkgs     map[string]*Package       // module/test packages, fully loaded
	imported map[string]*types.Package // everything else (stdlib)
	loading  map[string]bool           // import-cycle guard
}

// newLoader builds the shared loader state. Cgo is disabled so the
// standard library resolves to its pure-Go fallbacks, which are what
// source-based type checking can process.
func newLoader() *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:     token.NewFileSet(),
		ctxt:     ctxt,
		pkgs:     make(map[string]*Package),
		imported: make(map[string]*types.Package),
		loading:  make(map[string]bool),
	}
}

// NewModuleLoader creates a loader rooted at the enclosing Go module of
// dir ("" = current directory).
func NewModuleLoader(dir string) (*Loader, error) {
	l := newLoader()
	out, err := goJSON(dir, "list", "-m", "-json")
	if err != nil {
		return nil, fmt.Errorf("lint: cannot resolve module (run inside the module): %w", err)
	}
	var mod struct{ Path, Dir string }
	if err := json.Unmarshal(out[0], &mod); err != nil {
		return nil, err
	}
	if mod.Path == "" || mod.Dir == "" {
		return nil, fmt.Errorf("lint: go list -m returned no module path/dir")
	}
	l.modulePath, l.moduleDir = mod.Path, mod.Dir
	return l, nil
}

// NewTestLoader creates a loader for the testdata harness: non-stdlib
// imports resolve as subdirectories of root.
func NewTestLoader(root string) *Loader {
	l := newLoader()
	l.testRoot = root
	return l
}

// Load expands the package patterns (as the go tool would, from dir) and
// returns a Universe over the matched packages.
func (l *Loader) Load(dir string, patterns ...string) (*Universe, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	objs, err := goJSON(dir, append([]string{"list", "-json=ImportPath,Dir,Name"}, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w", strings.Join(patterns, " "), err)
	}
	u := &Universe{Fset: l.Fset, Module: l.pkgs}
	for _, raw := range objs {
		var p struct{ ImportPath, Dir, Name string }
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		pkg, err := l.loadDir(p.Dir, p.ImportPath)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			u.Targets = append(u.Targets, pkg)
		}
	}
	return u, nil
}

// LoadDirs loads the given directories as one Universe (testdata harness).
func (l *Loader) LoadDirs(dirs ...string) (*Universe, error) {
	u := &Universe{Fset: l.Fset, Module: l.pkgs}
	for _, dir := range dirs {
		importPath, err := filepath.Rel(l.testRoot, dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadDir(dir, filepath.ToSlash(importPath))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			u.Targets = append(u.Targets, pkg)
		}
	}
	return u, nil
}

// loadDir parses and type-checks one package directory with full syntax
// and type information, caching by import path. It returns (nil, nil) for
// directories with no non-test Go files.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return l.importPath(path, dir)
		}),
		Sizes: types.SizesFor("gc", l.ctxt.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, firstErr)
	}
	p := &Package{Path: importPath, Files: files, Pkg: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// importPath resolves one import for the type checker.
func (l *Loader) importPath(path, fromDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Module-local (or testdata-local) packages get the full treatment so
	// analyzers can follow calls into them.
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		p, err := l.loadDir(filepath.Join(l.moduleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return p.Pkg, nil
	}
	if l.testRoot != "" && !l.isStd(path) {
		p, err := l.loadDir(filepath.Join(l.testRoot, filepath.FromSlash(path)), path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files in %s", path)
		}
		return p.Pkg, nil
	}
	// Standard library (including GOROOT-vendored golang.org/x deps):
	// type-check from source, without syntax retention.
	if tp, ok := l.imported[path]; ok {
		return tp, nil
	}
	dir, err := l.stdDir(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var firstErr error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			return l.importPath(p, dir)
		}),
		Sizes: types.SizesFor("gc", l.ctxt.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tp, _ := conf.Check(path, l.Fset, files, nil)
	if firstErr != nil {
		return nil, fmt.Errorf("import %q: %w", path, firstErr)
	}
	l.imported[path] = tp
	return tp, nil
}

// stdDir locates a standard-library import path under GOROOT, trying the
// GOROOT vendor tree for the std's external deps.
func (l *Loader) stdDir(path string) (string, error) {
	goroot := l.ctxt.GOROOT
	if goroot == "" {
		goroot = gort.GOROOT()
	}
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module or GOROOT)", path)
}

// isStd reports whether path resolves inside GOROOT.
func (l *Loader) isStd(path string) bool {
	_, err := l.stdDir(path)
	return err == nil
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goJSON runs `go <args>` in dir and decodes its stream of JSON objects.
func goJSON(dir string, args ...string) ([]json.RawMessage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg != "" {
			return nil, fmt.Errorf("go %s: %s", strings.Join(args, " "), msg)
		}
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var objs []json.RawMessage
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		objs = append(objs, raw)
	}
	return objs, nil
}
