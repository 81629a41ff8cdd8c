//go:build knobs

package deploy

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobs are the tree's configuration structs, as package.Type under
// internal/.
var knobs = []string{
	"core.Config", "gossip.Config", "node.Config", "store.Options", "tcpnet.Config",
	"syncsvc.Server", "mempool.Options", "peerscore.Options", "gateway.Config", "deploy.Config",
	"cluster.Options",
}

// TestKnobs lists the configuration fields no non-test code sets (ROADMAP
// aim 2: a field with one value in use is a constant). It type-checks every
// package of the module and of the nested bench module, tests included,
// and counts a field as set where a composite literal of its struct names
// it (or lists it, unkeyed), where an assignment or ++/-- has it on the
// left, and where its address is taken (flag.*Var(&cfg.X, …)) — outside
// the file that declares the struct, whose defaults are not settings.
// Run by `make knobs`, which passes the ceiling as KNOBS_MAX: the test
// fails when more fields than that are unset.
func TestKnobs(t *testing.T) {
	ceiling, err := strconv.Atoi(os.Getenv("KNOBS_MAX"))
	if err != nil {
		t.Fatalf("KNOBS_MAX=%q: run by make knobs", os.Getenv("KNOBS_MAX"))
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		fset:   token.NewFileSet(),
		root:   root,
		pkgs:   map[string]*types.Package{},
		parsed: map[string]*ast.File{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	// field is one configuration field; its sets by non-test and test code.
	type field struct {
		name      string
		decl      string // the declaring file
		set       int
		testLines map[string]bool
	}
	fields := map[string]*field{} // by package path + "." + type + "." + name
	var order []string
	for _, k := range knobs {
		pkgName, typ, _ := strings.Cut(k, ".")
		pkg, err := l.Import(modulePath + "/internal/" + pkgName)
		if err != nil {
			t.Fatal(err)
		}
		obj := pkg.Scope().Lookup(typ)
		if obj == nil {
			t.Fatalf("%s: no such type", k)
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s is not a struct", k)
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				key := pkg.Path() + "." + typ + "." + f.Name()
				fields[key] = &field{name: k + "." + f.Name(), decl: l.fset.Position(obj.Pos()).Filename, testLines: map[string]bool{}}
				order = append(order, key)
			}
		}
	}
	record := func(owner types.Type, name string, pos token.Pos) {
		named := namedOf(owner)
		if named == nil || named.Obj().Pkg() == nil {
			return
		}
		f := fields[named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+name]
		if f == nil {
			return
		}
		p := l.fset.Position(pos)
		switch {
		case p.Filename == f.decl:
		case strings.HasSuffix(p.Filename, "_test.go"):
			f.testLines[fmt.Sprintf("%s:%d", p.Filename, p.Line)] = true
		default:
			f.set++
		}
	}
	// setField records the field a selector expression names, if it names one.
	setField := func(info *types.Info, e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		// The owner of a promoted field is the embedded struct it is declared in.
		owner := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			owner = structOf(owner).Field(i).Type()
		}
		record(owner, sel.Sel.Name, sel.Pos())
	}

	for _, pkg := range l.packages(t) {
		for _, files := range [][]string{append(pkg.GoFiles, pkg.TestGoFiles...), pkg.XTestGoFiles} {
			if len(files) == 0 {
				continue
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
			asts := l.parse(t, pkg.Dir, files)
			conf := types.Config{Importer: l, Error: func(error) {}}
			_, _ = conf.Check(pkg.ImportPath, l.fset, asts, info)
			for _, file := range asts {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st := structOf(info.TypeOf(n))
						if st == nil {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									record(info.TypeOf(n), key.Name, key.Pos())
								}
							} else if i < st.NumFields() {
								record(info.TypeOf(n), st.Field(i).Name(), elt.Pos())
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							setField(info, lhs)
						}
					case *ast.IncDecStmt:
						setField(info, n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							setField(info, n.X)
						}
					}
					return true
				})
			}
		}
	}

	unset := 0
	for _, key := range order {
		if f := fields[key]; f.set == 0 {
			unset++
			t.Logf("%-44s set by no code, by %d test line(s)", f.name, len(f.testLines))
		}
	}
	t.Logf("%d of %d configuration fields are assigned by no non-test code (ceiling %d)", unset, len(order), ceiling)
	if unset > ceiling {
		t.Fatalf("knobs: %d unset fields, above the ceiling KNOBS_MAX = %d", unset, ceiling)
	}
}

// modulePath is the root module's path; the bench module's is under it.
const modulePath = "blockdag"

// loader type-checks the module's packages from source: the standard
// library through the source importer, the module's own packages by
// directory, each once, so that no package is resolved through the go
// command.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	root   string
	pkgs   map[string]*types.Package
	parsed map[string]*ast.File
}

// Import implements types.Importer: a module package's non-test files.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	rel, ok := strings.CutPrefix(path, modulePath+"/")
	if !ok {
		return l.std.Import(path)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *loader) parseFile(name string) (*ast.File, error) {
	if f := l.parsed[name]; f != nil {
		return f, nil
	}
	f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.parsed[name] = f
	return f, nil
}

func (l *loader) parse(t *testing.T, dir string, names []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, name := range names {
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// packages lists every Go package directory of the tree, the bench module
// included, with its import path; build output and testdata are skipped.
func (l *loader) packages(t *testing.T) []*build.Package {
	t.Helper()
	var pkgs []*build.Package
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			return nil // no Go files here
		}
		rel, _ := filepath.Rel(l.root, path)
		bp.ImportPath = modulePath + "/" + filepath.ToSlash(rel)
		pkgs = append(pkgs, bp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs
}

// namedOf is t's named type, through one pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// structOf is t's struct type, through one pointer.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
