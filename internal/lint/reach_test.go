package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reachability gate: every package-level function, method and
// named type in a non-test file must be reachable from some binary.
//
//   - Roots are the main function of each main package, every init
//     function, and every package-level var declaration (its type and
//     initializer).
//   - A live declaration makes live every declaration an identifier in
//     it refers to: body, signature, receiver or type. Generic
//     instances resolve to their origin.
//   - A method nothing calls directly is still live when its receiver
//     type is live and its name is called through an interface that
//     live code uses, or is one of stdCalledMethods.
//
// Declarations that only tests, godoc examples or external modules
// use are listed in reachKeep with the reason they stay.

// stdCalledMethods are method names the standard library calls through
// its own interfaces (fmt, encoding/json, errors, io, net/http,
// go/types), so module code need not spell the call.
var stdCalledMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "WriteHeader": true, "Flush": true,
	"Write": true, "Read": true, "Close": true,
	"Import": true,
}

// reachKeep lists the unreachable declarations that stay, each with
// its reason. A stale entry (reachable, or gone) fails the gate.
var reachKeep = map[string]string{
	// Facade names the root tests and godoc examples use.
	"ealb.SimulatePolicy":   "the policy godoc example runs it",
	"ealb.StandardPolicies": "the facade test and policy godoc example range over it",
	"ealb.HomogeneousModel": "the facade test and the §4 benchmark regenerate the worked example with it",
	"ealb.PaperExample":     "the facade test and the analytic godoc example read it",
	"ealb.SweepSpec":        "the sweep godoc example declares its spec with it",

	// Test oracles: simpler paths the tests compare the production path with.
	"ealb/internal/stats.StdDev":             "the churn test checks sweep aggregates report the sample, not population, deviation",
	"ealb/internal/stats.Running.N":          "the stats tests check the observation count",
	"ealb/internal/stats.Running.Variance":   "the stats and workload tests check population variance",
	"ealb/internal/stats.Running.StdDev":     "the stats tests check population deviation",
	"ealb/internal/server.AppGenerator.Next": "the server tests check NextInto against the allocating draw",

	// The §4 closed-form equations the analytic tests pin.
	"ealb/internal/analytic.Model.ReferenceEnergy": "the analytic tests pin the §4 reference energy equation",
	"ealb/internal/analytic.Model.ReferenceOps":    "the analytic tests pin the §4 reference operations equation",
	"ealb/internal/analytic.Model.OptimizedEnergy": "the analytic tests pin the §4 optimized energy equation",
	"ealb/internal/analytic.Model.OptimizedOps":    "the analytic tests pin the §4 optimized operations equation",

	// Accessors the tests read state through.
	"ealb/internal/cluster.Cluster.Interval":     "the cluster and leader tests check the interval counter",
	"ealb/internal/cluster.Cluster.Failed":       "the fuzz, leader and ealb-sim tests check a server's failed flag",
	"ealb/internal/farm.Farm.Interval":           "the farm tests check the interval counter",
	"ealb/internal/serve.Server.Wait":            "the serve and engine tests wait for a run to finish",
	"ealb/internal/server.Server.PowerModel":     "the server tests check Reset rebuilds the linear power model",
	"ealb/internal/server.Server.CStateBusy":     "the server and cluster tests check the sleep-transition window",
	"ealb/internal/trace.Recorder.Events":        "the trace and engine tests check per-kind event counts",
	"ealb/internal/trace.Recorder.PhaseSnapshot": "the trace and cluster tests check phase timings",

	// RunStore.GetRun: the store tests read records back, and perfbench
	// forwards it, but the service reads records another way.
	"ealb/internal/store.Disk.GetRun":   "the store and serve tests read a record back",
	"ealb/internal/store.Memory.GetRun": "the store and serve tests read a record back",
	"ealb/perfbench.timedStore.GetRun":  "perfbench's tests compare stored records; the wrapper forwards RunStore",
}

// TestNoUnreachableCode loads every package of the module, perfbench,
// cmd/* and examples/* included, and fails on each unreachable
// declaration that reachKeep does not list, and on each stale entry.
func TestNoUnreachableCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("ealb", root)
	pkgs, err := l.LoadModule()
	if err != nil {
		t.Fatal(err)
	}

	dead := unreachable(pkgs)
	found := map[string]bool{}
	for _, d := range dead {
		found[d.name] = true
		if _, ok := reachKeep[d.name]; ok {
			continue
		}
		pos := l.Fset.Position(d.pos)
		t.Errorf("%s:%d %s is unreachable", pos.Filename, pos.Line, d.name)
	}
	var stale []string
	for name := range reachKeep {
		if !found[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("stale keep entry %s: it is reachable or no longer exists", name)
	}
}

// TestReachFixture pins the walker's rules on the reach fixture: the
// exact set reported, so a walker that marks everything live fails.
func TestReachFixture(t *testing.T) {
	const path = "ealb/internal/lintfixture/reach"
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("ealb", root)
	l.Overlay[path] = dir
	pkg, err := l.Load(path, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unreachable([]*Package{pkg}) {
		got = append(got, strings.TrimPrefix(d.name, path+"."))
	}
	want := []string{"deadShape", "deadShape.area", "deadGeneric", "dead"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreachable = %v, want %v", got, want)
	}
}

// deadDecl is one unreachable declaration: its position and its name,
// "importpath.Name" or "importpath.Recv.Method".
type deadDecl struct {
	pos  token.Pos
	name string
}

// reachDecl is one package-level declaration the walker tracks.
type reachDecl struct {
	node   ast.Node // walked for edges once the declaration is live
	info   *types.Info
	name   string          // "" for vars and consts, which are never reported
	recv   *types.TypeName // receiver type, for methods
	method string
}

// unreachable returns the package-level functions, methods and named
// types of pkgs that no root reaches, in position order.
func unreachable(pkgs []*Package) []deadDecl {
	decls := map[types.Object]*reachDecl{}
	var roots, methods []types.Object
	for _, pkg := range pkgs {
		prefix := pkg.Path + "."
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[decl.Name]
					d := &reachDecl{node: decl, info: pkg.Info, name: prefix + decl.Name.Name}
					if decl.Recv == nil {
						if decl.Name.Name == "init" || (decl.Name.Name == "main" && pkg.Types.Name() == "main") {
							roots = append(roots, obj)
						}
					} else {
						d.recv = recvTypeName(obj.(*types.Func))
						d.method = decl.Name.Name
						d.name = prefix + d.recv.Name() + "." + decl.Name.Name
						methods = append(methods, obj)
					}
					decls[obj] = d
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decls[pkg.Info.Defs[spec.Name]] = &reachDecl{node: spec, info: pkg.Info, name: prefix + spec.Name.Name}
						case *ast.ValueSpec:
							d := &reachDecl{node: spec, info: pkg.Info}
							for _, id := range spec.Names {
								if obj := pkg.Info.Defs[id]; obj != nil {
									decls[obj] = d
									if decl.Tok == token.VAR {
										roots = append(roots, obj)
									}
								}
							}
						}
					}
				}
			}
		}
	}

	live := map[types.Object]bool{}
	walked := map[*reachDecl]bool{}
	ifaceCalled := map[string]bool{}
	work := roots
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if live[obj] {
				continue
			}
			live[obj] = true
			d := decls[obj]
			if d == nil || walked[d] {
				continue
			}
			walked[d] = true
			ast.Inspect(d.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				use := d.info.Uses[id]
				if fn, ok := use.(*types.Func); ok {
					use = fn.Origin()
					if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalled[fn.Name()] = true
					}
				}
				if use != nil && decls[use] != nil && !live[use] {
					work = append(work, use)
				}
				return true
			})
		}
		// A method of a live type is live when its name is called
		// through an interface; each pass can add types and names.
		for _, m := range methods {
			d := decls[m]
			if !live[m] && live[d.recv] && (ifaceCalled[d.method] || stdCalledMethods[d.method]) {
				work = append(work, m)
			}
		}
		if len(work) == 0 {
			break
		}
	}

	var dead []deadDecl
	for obj, d := range decls {
		if d.name != "" && !live[obj] {
			dead = append(dead, deadDecl{pos: obj.Pos(), name: d.name})
		}
	}
	sort.SliceStable(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	return dead
}

// recvTypeName is the named type a method is declared on, generic
// receivers resolved to their origin.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}
