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
	"syncsvc.Server", "mempool.Options", "gateway.Config", "deploy.Config",
	"cluster.Options", "chaos.Config", "syncsvc.FetchConfig",
}

// TestKnobs lists the configuration fields no non-test code sets (ROADMAP
// aim 2: a field with one value in use is a constant) and the exported
// names under internal/ no non-test code uses (a name is a caller's: one
// only tests call is surface nobody needs). It type-checks every package
// of the module and of the nested bench module, tests included.
//
// A field counts as set where a composite literal of its struct names it
// (or lists it, unkeyed), where an assignment or ++/-- has it on the left,
// and where its address is taken (flag.*Var(&cfg.X, …)) — outside the file
// that declares the struct, whose defaults are not settings.
//
// A name — an exported func, method, type, var or const declared in a
// non-test file under internal/ — counts as used where a non-test file of
// either module, or a godoc Example, refers to it. A method is exempt when
// an interface the scan loads declares its name and signature (a caller
// reaches it through the interface), and so is every name of a package no
// non-test file imports (dagtest: test fixtures are the tests').
//
// Run by `make knobs`, which passes the ceiling as KNOBS_MAX: the test
// fails when more fields than that are unset, or more names unused.
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
	pkgs := l.packages(t)

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

	names := l.exportedNames(t, pkgs)
	used := map[string]bool{} // by nameKey
	ifaces := &interfaces{byName: map[string][]*types.Signature{}}
	ifaces.add(types.Universe.Lookup("error").Type())
	for _, pkg := range pkgs {
		for _, files := range [][]string{append(pkg.GoFiles, pkg.TestGoFiles...), pkg.XTestGoFiles} {
			if len(files) == 0 {
				continue
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Uses:       map[*ast.Ident]types.Object{},
			}
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
			callers := callerSpans(l.fset, asts)
			for id, obj := range info.Uses {
				if callers.cover(l.fset.Position(id.Pos())) {
					used[nameKey(obj)] = true
				}
			}
			for e, tv := range info.Types {
				if callers.cover(l.fset.Position(e.Pos())) {
					ifaces.add(tv.Type)
				}
			}
		}
	}
	for _, pkg := range l.pkgs {
		ifaces.addScope(pkg, map[*types.Package]bool{})
	}

	unset := 0
	for _, key := range order {
		if f := fields[key]; f.set == 0 {
			unset++
			t.Logf("%-44s set by no code, by %d test line(s)", f.name, len(f.testLines))
		}
	}
	t.Logf("%d of %d configuration fields are assigned by no non-test code (ceiling %d)", unset, len(order), ceiling)
	unused := 0
	for _, n := range names {
		if used[n.key] || ifaces.declares(n.obj) {
			continue
		}
		unused++
		t.Logf("%-44s used by no non-test code (%s)", n.name, n.pos)
	}
	t.Logf("%d of %d exported names under internal/ are used by no non-test code (ceiling %d)", unused, len(names), ceiling)
	if unset > ceiling || unused > ceiling {
		t.Fatalf("knobs: %d unset fields and %d unused names, above the ceiling KNOBS_MAX = %d", unset, unused, ceiling)
	}
}

// exportedName is one exported name declared in a non-test file under
// internal/.
type exportedName struct {
	key  string // nameKey
	name string // package.Name or package.Type.Method
	pos  string
	obj  types.Object
}

// exportedNames lists the exported funcs, methods, types, vars and consts
// of every package under internal/ that some non-test file imports, in
// declaration order.
func (l *loader) exportedNames(t *testing.T, pkgs []*build.Package) []exportedName {
	t.Helper()
	imported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, path := range pkg.Imports {
			imported[path] = true
		}
	}
	var names []exportedName
	add := func(obj types.Object, name string) {
		p := l.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(l.root, p.Filename)
		names = append(names, exportedName{key: nameKey(obj), name: name, pos: fmt.Sprintf("%s:%d", rel, p.Line), obj: obj})
	}
	for _, bp := range pkgs {
		if !strings.HasPrefix(bp.ImportPath, modulePath+"/internal/") || !imported[bp.ImportPath] {
			continue
		}
		pkg, err := l.Import(bp.ImportPath)
		if err != nil {
			t.Fatal(err)
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				add(obj, pkg.Name()+"."+n)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					add(m, pkg.Name()+"."+n+"."+m.Name())
				}
			}
		}
	}
	sort.SliceStable(names, func(i, j int) bool { return names[i].obj.Pos() < names[j].obj.Pos() })
	return names
}

// nameKey names a package-level object or a method the same way in every
// type-check of its package (a package checked with its tests declares its
// objects anew): package path, receiver type for a method, name. Anything
// else — a field, a local, an interface's method — has no key.
func nameKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// spans are the parts of a package's files whose references count as
// callers: all of a non-test file, and each godoc Example of a test file.
type spans map[string][][2]int // by file name: byte offset ranges

func callerSpans(fset *token.FileSet, files []*ast.File) spans {
	s := spans{}
	for _, f := range files {
		tf := fset.File(f.Pos())
		name := tf.Name()
		if !strings.HasSuffix(name, "_test.go") {
			s[name] = [][2]int{{0, tf.Size() + 1}}
			continue
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				s[name] = append(s[name], [2]int{tf.Offset(fn.Pos()), tf.Offset(fn.End())})
			}
		}
	}
	return s
}

func (s spans) cover(p token.Position) bool {
	for _, r := range s[p.Filename] {
		if r[0] <= p.Offset && p.Offset < r[1] {
			return true
		}
	}
	return false
}

// interfaces are the method signatures of every interface the scan loaded,
// by method name.
type interfaces struct {
	byName map[string][]*types.Signature
}

// add records t's methods if t is an interface.
func (s *interfaces) add(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		s.byName[m.Name()] = append(s.byName[m.Name()], m.Type().(*types.Signature))
	}
}

// addScope records the named interfaces of pkg and of every package it
// imports, transitively.
func (s *interfaces) addScope(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
			s.add(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		s.addScope(imp, seen)
	}
}

// declares reports whether obj is a method some interface declares with
// the same name and signature.
func (s *interfaces) declares(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	for _, sig := range s.byName[fn.Name()] {
		if types.Identical(sig, fn.Type()) {
			return true
		}
	}
	return false
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
