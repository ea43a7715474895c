package bench

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedSurfaceHasCallers: every exported identifier declared in a
// non-test file under internal/ — package-level constants, variables, types
// and functions, and the methods of its named types — must earn a non-test
// caller, or carry one line on surfaceAllowlist saying why not. A caller
// counts only when it is itself live: reachable through non-test code from
// an entry point of the root module — a main package (cmd/, examples/), an
// init function, or a type alias the root package exports. The root
// package's functions, variables and constants are no entry points: like
// the internal packages' API they are live only when a main reaches them, so
// the library exports nothing no program calls. Code reached only from an
// oracle, a test seam or a benchmark pin needs an entry of its own, so
// nothing survives merely because test-only code calls it. Unexported
// declarations anywhere in the root module need no entry, but must be
// reachable from the entry points or the allowlist: a helper only tests call
// belongs in a test file.
//
// The check is type-aware: both modules are type-checked from source, so
// two identifiers of one name are told apart, and a method counts as called
// when its type is live and an interface method it satisfies is — one that
// live code calls, or one the standard library calls (stdlibCalls). Struct
// fields are out of scope: encoding/json and the binary codecs read them by
// reflection or by layout.
//
// The allowlist is held to the same standard: an entry must name a declared
// identifier that is not live without it, its reason must start with one of
// surfaceReasons, and a "benchmark pin" must be reachable from benchmark/.
func TestExportedSurfaceHasCallers(t *testing.T) {
	m := loadModule(t, repoRoot(t))

	allowed := map[string]string{}
	var listed []types.Object
	pinned := m.reach(m.benchEntries)
	for _, e := range surfaceAllowlist {
		if _, dup := allowed[e.name]; dup {
			t.Errorf("surfaceAllowlist lists %s twice", e.name)
		}
		allowed[e.name] = e.reason
		obj, ok := m.declared[e.name]
		if !ok || !obj.Exported() || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/internal/") {
			t.Errorf("surfaceAllowlist lists %s, which is not an exported identifier under internal/", e.name)
			continue
		}
		listed = append(listed, obj)
		switch category, _, _ := strings.Cut(e.reason, ":"); category {
		case "oracle", "test seam":
		case "benchmark pin":
			if !pinned[obj] {
				t.Errorf("%s is allowlisted as a benchmark pin but benchmark/ does not reach it", e.name)
			}
		default:
			t.Errorf("%s: allowlist reason %q must start with one of %v", e.name, e.reason, surfaceReasons)
		}
	}

	live := m.reach(m.entries)
	reached := m.reach(append(listed, m.entries...))
	for _, name := range slices.Sorted(maps.Keys(m.declared)) {
		obj := m.declared[name]
		_, onList := allowed[name]
		switch {
		case !obj.Exported():
			if !reached[obj] {
				t.Errorf("%s (%s) is declared in a non-test file but only tests reach it; "+
					"move it into a _test.go file or delete it", name, m.fset.Position(obj.Pos()))
			}
		case onList && live[obj]:
			t.Errorf("%s is on surfaceAllowlist but live code calls it; drop the entry", name)
		case !onList && !live[obj]:
			t.Errorf("%s (%s) is exported but no live non-test code of the root module calls it; "+
				"delete or unexport it, or give it a surfaceAllowlist entry", name, m.fset.Position(obj.Pos()))
		}
	}
}

// surfaceReasons are the only grounds for an exported identifier without a
// live non-test caller.
var surfaceReasons = []string{"oracle", "test seam", "benchmark pin"}

// surfaceAllowlist names each exported identifier under internal/ that no
// live non-test code calls, as pkg.Name or pkg.Type.Method (pkg relative to
// internal/), with a one-line "<reason>: <why>" whose reason is one of
// surfaceReasons.
var surfaceAllowlist = []struct{ name, reason string }{
	{"brandes.Betweenness", "oracle: the sequential source loop BetweennessParallel's merge is checked against"},
	{"approx.EverettBorgatti", "oracle: the closed-form ego betweenness, sharing no code with the kernel"},
	{"ego.ComputeAllReference", "oracle: BFS path counting on every vertex, independent of the kernel"},
	{"ego.ReferenceBFS", "oracle: ComputeAllReference's per-vertex BFS path counting"},
	{"ego.ComputeAllWithMaps", "oracle: the sequential evidence maps the parallel sweep's maps are checked against"},
	{"ego.ScoreEvidence", "oracle: scores a completed evidence map, so maps and kernel are checked to the bit"},
	{"pairmap.Map.Iterate", "oracle: ScoreEvidence's and the map-equality checks' walk over a map's entries"},
	{"ego.TopKExact", "oracle: exhaustive selection the two searches and the approx tier are checked against"},
	{"graph.FromAdjacency", "oracle: the sort-and-dedup builder Freeze's direct CSR export is checked against"},
	{"paperex.AfterDeleteCG", "oracle: the paper's Examples 6/8 scores after deleting (c,g)"},
	{"paperex.AfterInsertIK", "oracle: the paper's Examples 5/7 scores after inserting (i,k)"},
	{"paperex.BaseSearchComputed", "oracle: the paper's Example 3 count of BaseBSearch computations"},
	{"paperex.New", "oracle: the paper's Fig. 1 graph the Examples 1-8 checks run on"},
	{"paperex.CB", "oracle: the paper's Examples 1-3 scores of every vertex"},
	{"paperex.Top5", "oracle: the paper's Examples 3-4 top-5 answer"},
	{"gen.Random", "test seam: the seeded random-graph source the property tests draw their inputs from"},
	{"server.WithClock", "test seam: lets the windowed-serving tests advance time deterministically"},
	{"server.WithCrashHook", "test seam: the crash-recovery harness's injection point on every graph store"},
	{"store.WithSync", "test seam: the WAL benchmark's no-fsync arm"},
	{"dynamic.LazyTopK.K", "benchmark pin: benchmark/verify.go checks the lib stage's LazyTopK.Results at its K()"},
	{"graph.DegreeRelabel", "benchmark pin: the graph.relabel_ms and ego.opt.relabeled_k100_ms probes"},
	{"graph.Relabeled", "benchmark pin: DegreeRelabel's result"},
	{"nbr.CommonCount", "benchmark pin: the nbr.edge_pass_ns and nbr.hub_pair_ns probes"},
	{"nbr.Register.AndCount", "benchmark pin: the nbr.hub_word_ns probe"},
	{"store.Create", "benchmark pin: the store.* layer and the replay stage create stores without stamps"},
}

// module is the non-test code of the root and benchmark modules as a graph:
// every package-level object and method is a node, with an edge to each
// object its declaration refers to.
type module struct {
	fset         *token.FileSet
	refs         map[types.Object]map[types.Object]bool
	stdCalls     []*types.Interface      // interfaces the standard library calls into
	entries      []types.Object          // mains, inits and the root package's type aliases
	benchEntries []types.Object          // every declaration of the benchmark module
	declared     map[string]types.Object // root-module declarations, by allowlist name
}

// reach returns every object reachable from roots: along declaration
// references, and from a live type to each method of it that satisfies a
// live interface method or one of stdCalls.
func (m *module) reach(roots []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			for to := range m.refs[obj] {
				mark(to)
			}
		}
		called := map[string][]*types.Interface{}
		for obj := range live {
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[fn.Name()] = append(called[fn.Name()], recv.Type().Underlying().(*types.Interface))
				}
			}
		}
		for _, it := range m.stdCalls {
			for i := 0; i < it.NumMethods(); i++ {
				called[it.Method(i).Name()] = append(called[it.Method(i).Name()], it)
			}
		}
		// Method sets include methods promoted from embedded fields.
		for obj := range live {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Pkg() == nil || !strings.HasPrefix(tn.Pkg().Path(), modulePath) || types.IsInterface(tn.Type()) {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(typ)
				for i := 0; i < ms.Len(); i++ {
					fn := ms.At(i).Obj()
					for _, it := range called[fn.Name()] {
						if types.Implements(typ, it) {
							mark(origin(fn))
							break
						}
					}
				}
			}
		}
	}
	return live
}

// stdlibCalls declares the interfaces whose methods the standard library
// calls on values the module hands it: fmt's String and Error, the errors
// package's unwrapping protocol, sort and container/heap, io, net/http and
// encoding/json.
const stdlibCalls = `package stdlibcalls

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer    = fmt.Stringer
	errorer     = error
	unwrapper   interface{ Unwrap() error }
	unwrappers  interface{ Unwrap() []error }
	iser        interface{ Is(error) bool }
	aser        interface{ As(any) bool }
	sorter      = sort.Interface
	heaper      = heap.Interface
	reader      = io.Reader
	writer      = io.Writer
	closer      = io.Closer
	handler     = http.Handler
	marshaler   = json.Marshaler
	unmarshaler = json.Unmarshaler
)
`

// srcPackage is one type-checked package: its non-test files only.
type srcPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// surfaceLoader type-checks the packages of the root module (and of the
// benchmark module, whose import paths share its prefix) itself, once each,
// so objects compare by identity across importers; the standard library comes
// from its compiled export data (go/importer's gc importer, which asks the go
// command for it).
type surfaceLoader struct {
	fset *token.FileSet
	root string
	std  types.Importer
	pkgs map[string]*srcPackage
}

const modulePath = "repro"

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *surfaceLoader) load(path string) (*srcPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &srcPackage{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadModule type-checks every package of the root module and of the
// benchmark module and builds their reference graph.
func loadModule(t *testing.T, root string) *module {
	t.Helper()
	fset := token.NewFileSet()
	l := &surfaceLoader{fset: fset, root: root, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*srcPackage{}}
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			rel, _ := filepath.Rel(root, path)
			paths = append(paths, strings.TrimSuffix(modulePath+"/"+filepath.ToSlash(rel), "/."))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	m := &module{
		fset:     fset,
		refs:     map[types.Object]map[types.Object]bool{},
		declared: map[string]types.Object{},
	}
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				continue // test files only
			}
			t.Fatalf("type-checking %s: %v", path, err)
		}
		m.index(path, p)
	}

	f, err := parser.ParseFile(fset, "stdlibcalls.go", stdlibCalls, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := (&types.Config{Importer: l}).Check("stdlibcalls", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range calls.Scope().Names() {
		m.stdCalls = append(m.stdCalls, calls.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return m
}

// index adds one package's declarations and references to the graph.
func (m *module) index(path string, p *srcPackage) {
	bench := path == modulePath+"/benchmark" || strings.HasPrefix(path, modulePath+"/benchmark/")
	// Allowlist names are relative to internal/; elsewhere they keep the
	// directory (cmd/egobwd.run) or, at the root, the package name.
	rel, internal := strings.CutPrefix(path, modulePath+"/internal/")
	if !internal {
		rel = strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if rel == "" {
			rel = p.pkg.Name()
		}
	}
	declare := func(name string, obj types.Object) {
		if !bench && obj.Name() != "_" {
			m.declared[rel+"."+name] = obj
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			var owners []types.Object
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := p.info.Defs[decl.Name].(*types.Func)
				owners = append(owners, fn)
				switch {
				case decl.Recv != nil:
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					declare(recv.(*types.Named).Obj().Name()+"."+fn.Name(), fn)
				case !bench && (fn.Name() == "init" || fn.Name() == "main" && p.pkg.Name() == "main"):
					m.entries = append(m.entries, fn)
				default:
					declare(fn.Name(), fn)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := p.info.Defs[spec.Name]
						owners = append(owners, obj)
						declare(obj.Name(), obj)
						if it, ok := spec.Type.(*ast.InterfaceType); ok {
							for _, field := range it.Methods.List {
								for _, n := range field.Names {
									declare(obj.Name()+"."+n.Name, p.info.Defs[n])
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							obj := p.info.Defs[n]
							owners = append(owners, obj)
							declare(obj.Name(), obj)
						}
					}
				}
			}
			if bench {
				m.benchEntries = append(m.benchEntries, owners...)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if to := p.info.Uses[id]; to != nil {
						to = origin(to)
						for _, from := range owners {
							if m.refs[from] == nil {
								m.refs[from] = map[types.Object]bool{}
							}
							m.refs[from][to] = true
						}
					}
				}
				return true
			})
		}
	}

	if path != modulePath {
		return
	}
	// The root package's type aliases are entry points: naming a type its
	// functions return is their only use. Its functions, variables and
	// constants are not; each must earn a caller in a main package, like
	// any other declaration.
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() && tn.IsAlias() {
			m.entries = append(m.entries, tn)
		}
	}
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
