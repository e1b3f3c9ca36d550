package repro_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The documents and the exported API are held to budgets: the docs describe
// the system as it is in a bounded number of lines, every name they cite
// exists, every figure is indexed, and nothing under internal/ is exported
// only for its own package's tests.

// docBudgets are the line budgets of the three descriptive documents.
var docBudgets = map[string]int{"DESIGN.md": 480, "EXPERIMENTS.md": 600, "README.md": 160}

func TestDocLineBudgets(t *testing.T) {
	for name, budget := range docBudgets {
		if n := bytes.Count(readFile(t, name), []byte("\n")); n > budget {
			t.Errorf("%s has %d lines, budget %d: say it in fewer words, or delete what no longer holds", name, n, budget)
		}
	}
}

// codeBudget pins the non-test Go lines under internal/, counted as
// `find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l` does.
// Like the doc budgets it is raised only by a change that says why: the code
// is meant to shrink, not grow.
const codeBudget = 16094

func TestCodeLineBudget(t *testing.T) {
	n := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			n += bytes.Count(readFile(t, path), []byte("\n"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > codeBudget {
		t.Errorf("internal/ holds %d non-test Go lines, budget %d: delete what no longer earns its place, or raise the budget and say why", n, codeBudget)
	}
}

var (
	// pathRef is a repository path a document cites.
	pathRef = regexp.MustCompile(`\b(?:internal|cmd)/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
	// identRef is a backticked pkg.Ident, optionally .Member, at the start
	// of a code span.
	identRef = regexp.MustCompile("`([a-z]+)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?")
	// lineRef is a source line citation, which goes stale with any edit.
	lineRef = regexp.MustCompile(`\b[a-z0-9_]+\.go:[0-9]+`)
)

// TestDocReferencesResolve: every internal/… or cmd/… path and every
// backticked pkg.Ident (or pkg.Type.Member) in DESIGN.md and README.md
// names something in the tree, and DESIGN cites no file.go:N lines.
func TestDocReferencesResolve(t *testing.T) {
	decls := packageDecls(t)
	for _, name := range []string{"DESIGN.md", "README.md"} {
		doc := string(readFile(t, name))
		for _, p := range pathRef.FindAllString(doc, -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s cites %s, which does not exist", name, p)
			}
		}
		for _, m := range identRef.FindAllStringSubmatch(doc, -1) {
			pkg, ok := decls[m[1]]
			if !ok {
				continue // not a package of this module (e.g. a file name)
			}
			ref := m[1] + "." + m[2]
			if m[3] != "" {
				ref += "." + m[3]
			}
			if !pkg[m[2]] && !pkg[m[2]+"."+m[3]] {
				t.Errorf("%s cites `%s`, which does not exist", name, ref)
			}
		}
		if name == "DESIGN.md" {
			for _, l := range lineRef.FindAllString(doc, -1) {
				t.Errorf("DESIGN.md cites line %s: name the function instead", l)
			}
		}
	}
}

// TestDocIndexesEveryExperiment: every cmd/epochbench experiment id has a
// row in DESIGN.md's per-figure index and a section in EXPERIMENTS.md.
func TestDocIndexesEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/epochbench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	ast.Inspect(f, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "id" {
				id, _ := strconv.Unquote(kv.Value.(*ast.BasicLit).Value)
				ids = append(ids, id)
			}
		}
		return true
	})
	if len(ids) < 20 {
		t.Fatalf("found %d experiment ids in cmd/epochbench/main.go, want every registry row", len(ids))
	}
	design, exps := string(readFile(t, "DESIGN.md")), string(readFile(t, "EXPERIMENTS.md"))
	_, index, ok := strings.Cut(design, "## Per-figure index")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Per-figure index" section`)
	}
	for _, id := range ids {
		if !strings.Contains(index, "| `"+id+"` |") {
			t.Errorf("experiment %q has no row in DESIGN.md's per-figure index", id)
		}
		if !strings.Contains(exps, "`-fig "+id+"`") {
			t.Errorf("experiment %q is not named (`-fig %s`) in EXPERIMENTS.md", id, id)
		}
	}
}

// TestExportedIdentifiersHaveNonTestUsers is the unread-export audit: an
// exported package-level identifier or method declared under internal/ must
// be referenced by non-test code of the module or by another package's
// tests, not only by its own package's tests. Methods of the types package
// repro re-exports are public API, and so are methods that can be called
// through an interface (String, Error, or an interface of the module).
func TestExportedIdentifiersHaveNonTestUsers(t *testing.T) {
	l := newLoader(t)
	for _, path := range l.order {
		l.load(path)
	}
	used := map[token.Pos]bool{} // declaration positions of the read objects
	for _, obj := range l.uses {
		used[origin(obj).Pos()] = true
	}
	for _, path := range l.order {
		for _, obj := range l.testUses(path) {
			if obj.Pkg() != nil && obj.Pkg().Path() != path {
				used[origin(obj).Pos()] = true
			}
		}
	}
	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	public := reexportedTypes(l.pkgs["repro"])
	var unread []string
	for _, path := range l.order {
		if !strings.Contains(path, "/internal/") {
			continue
		}
		p := l.pkgs[path]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() && !used[obj.Pos()] {
				unread = append(unread, p.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m.Pos()] && !dispatched(named, m, ifaces) {
					unread = append(unread, p.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("%s is exported but only its own package's tests read it: unexport it, or delete it and what only it served", u)
	}
}

// dispatched reports whether m can be called through an interface: it is a
// String or Error method, or the type satisfies an interface of the module
// that has m.
func dispatched(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if sig := m.Type().(*types.Signature); (m.Name() == "String" || m.Name() == "Error") &&
		sig.Params().Len() == 0 && sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
		return true
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// reexportedTypes is the set of internal types package repro aliases.
func reexportedTypes(root *types.Package) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, name := range root.Scope().Names() {
		if tn, ok := root.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loader type-checks the module's packages from source: each package's
// non-test files once, recording every identifier use, and on request its
// tests. Files are parsed once, so a declaration has one position in every
// check that includes it.
type loader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	uses  map[*ast.Ident]types.Object // of the non-test checks
	dirs  map[string]string           // import path -> directory
	order []string                    // import paths in directory order
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> non-test files
}

func newLoader(t *testing.T) *loader {
	l := &loader{t: t, fset: token.NewFileSet(), uses: map[*ast.Ident]types.Object{},
		dirs: map[string]string{}, pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(dir, 0); err == nil && len(bp.GoFiles) > 0 {
			path := filepath.ToSlash(filepath.Join("repro", dir))
			l.dirs[path] = dir
			l.order = append(l.order, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Import resolves module packages through the loader and the rest from
// GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path), nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) *types.Package {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	l.files[path] = l.parse(l.build(path).GoFiles, path)
	l.pkgs[path] = l.check(path, l.files[path], l, l.uses)
	return l.pkgs[path]
}

// testUses type-checks path's in-package tests with its files, then its
// external tests against that, and returns every identifier use in both.
func (l *loader) testUses(path string) map[*ast.Ident]types.Object {
	bp, uses := l.build(path), map[*ast.Ident]types.Object{}
	withTests := l.pkgs[path]
	if len(bp.TestGoFiles) > 0 {
		withTests = l.check(path, append(l.parse(bp.TestGoFiles, path), l.files[path]...), l, uses)
	}
	if len(bp.XTestGoFiles) > 0 {
		l.check(path+"_test", l.parse(bp.XTestGoFiles, path), importerFunc(func(p string) (*types.Package, error) {
			if p == path {
				return withTests, nil
			}
			return l.Import(p)
		}), uses)
	}
	return uses
}

func (l *loader) build(path string) *build.Package {
	bp, err := build.ImportDir(l.dirs[path], 0)
	if err != nil {
		l.t.Fatal(err)
	}
	return bp
}

func (l *loader) parse(names []string, path string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.dirs[path], name), nil, 0)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func (l *loader) check(path string, files []*ast.File, imp types.Importer, uses map[*ast.Ident]types.Object) *types.Package {
	p, err := (&types.Config{Importer: imp}).Check(path, l.fset, files, &types.Info{Uses: uses})
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	return p
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// packageDecls maps each module package name to its package-level
// identifiers, its methods as "Type.Method" and its struct fields as
// "Type.Field", from test and non-test files alike.
func packageDecls(t *testing.T) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if out[name] == nil {
			out[name] = map[string]bool{}
		}
		decls := out[name]
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = true
				} else {
					decls[recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									decls[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("receiver type %T", e))
		}
	}
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDocModeSeam holds DESIGN's claim that a window's mode plugs in at one
// seam: outside internal/core/mode.go, no non-test file of core names a Mode
// constant or reads a .mode field. Comments do not count.
func TestDocModeSeam(t *testing.T) {
	names, err := filepath.Glob("internal/core/*.go")
	if err != nil || len(names) == 0 {
		t.Fatalf("no core sources: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") || filepath.Base(name) == "mode.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "mode" {
					t.Errorf("%s reads .mode: ask the window's mode implementation (mode.go) instead", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				if n.Name == "ModeNew" || n.Name == "ModeVanilla" || n.Name == "ModeFlush" {
					t.Errorf("%s names %s: mode policy belongs behind the seam in mode.go", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}
