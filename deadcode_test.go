package locaware

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllowed is every declaration TestNoTestOnlyProductionCode accepts
// without a production caller or reader, named package.Func,
// package.Type.Method or package.Type.Field, each with its reason.
var deadCodeAllowed = map[string]string{
	"core.Config.Shards":                "ROADMAP 1(b): benchmark/ still sets it; it goes with the benchmark's vestigial names",
	"netmodel.FixedLandmarks":           "fixture: the locality tests pin landmarks at known points",
	"cache.Index.Filenames":             "oracle: the gossip equivalence test rebuilds a node's filter from it",
	"bloom.Filter.Equal":                "oracle: the gossip and filter-rebuild tests compare filters through it",
	"locaware.SweepResult.CellEstimate": "benchmark/bench_test.go compares a campaign cell with direct runs through it",
	"core.RunResult.Digest":             "ROADMAP 23: the benchmark's sim_digest, pinned in core's tests; benchmark/ keeps its own copy until 1(b)",
}

// TestNoTestOnlyProductionCode type-checks both modules — the library with
// its CLIs, and benchmark/ — and fails on production code that only tests
// need (the facade's Example functions count as production, not as tests):
//   - a function or method declared outside benchmark/ that no production
//     file uses (called only by tests, or by nothing);
//   - a struct field declared outside benchmark/ that no production file
//     reads (read only by tests, or by nothing).
//
// A method that implements an interface counts as used when the interface
// method is used in production, or when the interface is the standard
// library's (fmt.Stringer, error, sort.Interface and the like are called
// from code this test does not see). Fields with a json tag, embedded fields
// and the facade's exported fields are exempt: an encoder or a library user
// reads them. Anything else either gains a production use, goes, or gets a
// line in deadCodeAllowed.
func TestNoTestOnlyProductionCode(t *testing.T) {
	g := newDeadCodeGate(t)
	var found []string
	for name, d := range g.decls {
		_, allowed := deadCodeAllowed[name]
		if why := g.verdict(d); why != "" && !allowed {
			found = append(found, d.pos+": "+name+" is "+why)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
	for name := range deadCodeAllowed {
		if d, ok := g.decls[name]; !ok {
			t.Errorf("deadCodeAllowed names %s, which is not declared", name)
		} else if g.verdict(d) == "" {
			t.Errorf("deadCodeAllowed names %s, which has a production use now", name)
		}
	}
}

// gatePkg is one directory's Go files, split as the go tool splits them.
type gatePkg struct {
	path, dir     string
	prod, tests   []*ast.File // package p
	xtests        []*ast.File // package p_test
	checked, full *types.Package
	info          *types.Info // of the production check
}

// gateDecl is one function, method or field the gate judges.
type gateDecl struct {
	pos   string
	obj   types.Object
	field bool
}

type deadCodeGate struct {
	t        *testing.T
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*gatePkg
	decls    map[string]gateDecl // by name
	prodUse  map[token.Pos]bool  // functions used, fields read, by production
	testUse  map[token.Pos]bool  // the same, by tests
	written  map[*ast.Ident]bool
	viaIface map[token.Pos][]token.Pos // concrete method → the module interface methods it implements
	stdIface map[token.Pos]bool        // methods that implement a standard-library interface
}

const gateModule = "github.com/p2prepro/locaware"

func newDeadCodeGate(t *testing.T) *deadCodeGate {
	// Type-check the standard library from source without cgo: the pure-Go
	// files declare the same API, and no C compiler is needed.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	g := &deadCodeGate{
		t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*gatePkg{}, decls: map[string]gateDecl{},
		prodUse: map[token.Pos]bool{}, testUse: map[token.Pos]bool{},
		written: map[*ast.Ident]bool{}, viaIface: map[token.Pos][]token.Pos{},
		stdIface: map[token.Pos]bool{},
	}
	g.parse()
	paths := make([]string, 0, len(g.pkgs))
	for p := range g.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		g.production(p)
	}
	for _, p := range paths {
		g.withTests(g.pkgs[p])
	}
	for _, p := range paths {
		g.declare(g.pkgs[p])
	}
	g.implementers(paths)
	return g
}

// parse reads every .go file under the repository root, both modules,
// skipping hidden directories, testdata and the benchmark's build output.
func (g *deadCodeGate) parse() {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(g.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ip := gateModule
		if dir != "." {
			ip += "/" + dir
		}
		p := g.pkgs[ip]
		if p == nil {
			p = &gatePkg{path: ip, dir: dir}
			g.pkgs[ip] = p
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			p.prod = append(p.prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		return nil
	})
	if err != nil {
		g.t.Fatal(err)
	}
}

// importer resolves module packages to their production-only check. For
// the external tests of self it resolves self to the package with its
// in-package tests, and re-checks every module package that imports self
// against that, as the go tool builds a test binary.
func (g *deadCodeGate) importer(self *gatePkg) types.Importer {
	variant := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := g.pkgs[path]
		switch {
		case p == nil:
			return g.std.Import(path)
		case self == nil || !g.imports(path, self.path):
			return g.production(path), nil
		case path == self.path:
			return self.full, nil
		case variant[path] == nil:
			variant[path], _ = g.check(path, p.prod, imp)
		}
		return variant[path], nil
	}
	return imp
}

// imports reports whether module package path is dep or imports it,
// directly or not.
func (g *deadCodeGate) imports(path, dep string) bool {
	if path == dep {
		return true
	}
	for _, imp := range g.production(path).Imports() {
		if _, mod := g.pkgs[imp.Path()]; mod && g.imports(imp.Path(), dep) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (g *deadCodeGate) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Error: func(err error) { g.t.Error(err) }}
	pkg, _ := conf.Check(path, g.fset, files, info)
	for _, f := range files {
		g.markWrites(f)
	}
	// The facade's Example functions are its runnable documentation, as the
	// example programs they replaced were: a use inside one is production.
	var examples []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && path == gateModule+"_test" && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				examples = append(examples, fn)
			}
		}
	}
	inExample := func(pos token.Pos) bool {
		for _, fn := range examples {
			if fn.Pos() <= pos && pos < fn.End() {
				return true
			}
		}
		return false
	}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			if !o.IsField() || g.written[id] {
				continue
			}
			obj = o.Origin()
		default:
			continue
		}
		if strings.HasSuffix(g.fset.File(id.Pos()).Name(), "_test.go") && !inExample(id.Pos()) {
			g.testUse[obj.Pos()] = true
		} else {
			g.prodUse[obj.Pos()] = true
		}
	}
	return pkg, info
}

// production type-checks a module package's non-test files, once.
func (g *deadCodeGate) production(path string) *types.Package {
	p := g.pkgs[path]
	if p.checked == nil && len(p.prod) > 0 {
		p.checked, p.info = g.check(path, p.prod, g.importer(nil))
	}
	return p.checked
}

// withTests type-checks a package with its in-package tests, then its
// external tests against that.
func (g *deadCodeGate) withTests(p *gatePkg) {
	p.full = p.checked
	if len(p.tests) > 0 {
		p.full, _ = g.check(p.path, append(append([]*ast.File{}, p.prod...), p.tests...), g.importer(nil))
	}
	if len(p.xtests) > 0 {
		g.check(p.path+"_test", p.xtests, g.importer(p))
	}
}

// markWrites records the identifiers that store into a field without
// reading it: the selector on the left of an assignment or ++/--, and the
// key of a struct literal element.
func (g *deadCodeGate) markWrites(f *ast.File) {
	lhs := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			g.written[s.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				g.written[id] = true
			}
		}
		return true
	})
}

// declare lists the functions, methods and fields a package outside
// benchmark/ declares in its production files.
func (g *deadCodeGate) declare(p *gatePkg) {
	if p.checked == nil || p.dir == "benchmark" || strings.HasPrefix(p.dir, "benchmark/") {
		return
	}
	label := p.checked.Name()
	if label == "main" {
		label = filepath.Base(p.dir)
	}
	add := func(name string, id *ast.Ident, field bool) {
		pos := g.fset.Position(id.Pos())
		g.decls[name] = gateDecl{filepath.ToSlash(pos.Filename) + ":" + strconv.Itoa(pos.Line), p.info.Defs[id], field}
	}
	for _, f := range p.prod {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") {
				continue
			}
			name := label + "." + fn.Name.Name
			if fn.Recv != nil {
				name = label + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			add(name, fn.Name, false)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			ast.Inspect(spec.Type, func(n ast.Node) bool {
				fl, ok := n.(*ast.Field)
				if !ok || fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
					return true
				}
				if v, ok := p.info.Defs[firstName(fl)].(*types.Var); !ok || !v.IsField() {
					return true // embedded, or a parameter, result or interface method
				}
				for _, id := range fl.Names {
					if id.Name == "_" || label == "locaware" && spec.Name.IsExported() && id.IsExported() {
						continue
					}
					add(label+"."+spec.Name.Name+"."+id.Name, id, true)
				}
				return true
			})
			return false
		})
	}
}

// firstName is a field's first declared name, nil for an embedded field.
func firstName(f *ast.Field) *ast.Ident {
	if len(f.Names) == 0 {
		return nil
	}
	return f.Names[0]
}

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
			return "?"
		}
	}
}

// implementers records, for every method of a module type, the interface
// methods it implements: module interfaces by the interface method's
// position, standard-library ones as a plain mark.
func (g *deadCodeGate) implementers(paths []string) {
	type iface struct {
		typ *types.Interface
		std bool
	}
	ifaces := []iface{{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), true}}
	visited := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if pkg == nil || visited[pkg] {
			return
		}
		visited[pkg] = true
		_, mod := g.pkgs[pkg.Path()]
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, iface{it, !mod})
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range paths {
		visit(g.pkgs[p].checked)
	}
	for _, p := range paths {
		pkg := g.pkgs[p].checked
		if pkg == nil {
			continue
		}
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			ms := types.NewMethodSet(ptr)
			has := map[string]bool{}
			for i := 0; i < ms.Len(); i++ {
				has[ms.At(i).Obj().Name()] = true
			}
			for _, it := range ifaces {
				if !has[it.typ.Method(0).Name()] || !types.Implements(ptr, it.typ) {
					continue
				}
				for i := 0; i < it.typ.NumMethods(); i++ {
					m := it.typ.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
					if obj == nil {
						continue
					}
					if it.std {
						g.stdIface[obj.Pos()] = true
					} else {
						g.viaIface[obj.Pos()] = append(g.viaIface[obj.Pos()], m.Pos())
					}
				}
			}
		}
	}
}

// verdict is "" when production uses d, else why not.
func (g *deadCodeGate) verdict(d gateDecl) string {
	pos := d.obj.Pos()
	if g.prodUse[pos] {
		return ""
	}
	if d.field {
		if g.testUse[pos] {
			return "read only by tests"
		}
		return "read by no one"
	}
	if g.stdIface[pos] {
		return ""
	}
	for _, m := range g.viaIface[pos] {
		if g.prodUse[m] {
			return ""
		}
	}
	if g.testUse[pos] {
		return "called only by tests"
	}
	return "called by nothing"
}
