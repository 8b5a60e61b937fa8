package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
)

// clusterPkgPath roots the plan-family naming rule: inside the cluster
// subtree, a method named plan* is the leader's pure planning pass by
// the PR 3 architecture, whether or not its author remembered the
// annotation.
const clusterPkgPath = "ealb/internal/cluster"

// isTracerType reports whether t is the trace.Tracer interface, whose
// calls planpure bans from pure functions by name: the facts engine
// cannot see through an interface call.
func isTracerType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Tracer" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "ealb/internal/trace"
}

// PlanPure mechanizes the pure-plan/effectful-apply split the golden
// digests depend on (PR 3): planBalance and its helpers compute the
// leader's entire decision list without mutating cluster state, so that
// a plan can be discarded, replayed, diffed against an oracle, or run
// ahead speculatively. The contract held by review alone before this
// analyzer; one stray write through the receiver (or one call into an
// effectful helper) silently turns the plan step back into
// mutate-as-you-go, and the digests only catch it if the write lands on
// a goldened path.
//
// A pure function — anything annotated //ealb:pure, plus every plan*
// method in the cluster subtree (which must carry the annotation; a
// bare plan* method is itself a finding) — may not:
//
//   - assign through its receiver or package-level state, except into
//     //ealb:scratch-marked storage (the leaderState and the protocol
//     RNG — mutating scratch is what planning is);
//   - call a function carrying the Mutates fact (facts.go), unless the
//     call's receiver chain passes scratch storage;
//   - call the tracer at all — tracing is an apply-step effect; a plan
//     that traces emits events for decisions that may be discarded;
//   - call a function carrying the Nondet fact — a pure plan is also a
//     deterministic plan (detrand already bans direct nondeterminism in
//     the cluster subtree; the fact closes the cross-package hole).
//
// The escape is //ealb:allow-impure <reason> on the offending line —
// used, for example, where planBalance flushes the read-only server
// index before the pass (an idempotent reconciliation of a mirror, not
// protocol state).
var PlanPure = &Analyzer{
	Name: "planpure",
	Doc: "require //ealb:pure functions (and the cluster plan* family, which " +
		"must carry the annotation) to mutate nothing outside //ealb:scratch " +
		"storage: no receiver/package writes, no Mutates-fact callees, no " +
		"tracer calls, no Nondet-fact callees, unless annotated " +
		"//ealb:allow-impure <reason>",
	Run: runPlanPure,
}

// inClusterSubtree reports whether the path is the cluster package or a
// subpackage (fixtures load as pseudo-subpackages).
func inClusterSubtree(path string) bool {
	return path == clusterPkgPath || strings.HasPrefix(path, clusterPkgPath+"/")
}

// isPlanFamily reports whether the method name belongs to the leader's
// plan* family (plan followed by an exported-style segment).
func isPlanFamily(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return false
	}
	name := fd.Name.Name
	rest, ok := strings.CutPrefix(name, "plan")
	if !ok || rest == "" {
		return false
	}
	return unicode.IsUpper(rune(rest[0]))
}

func runPlanPure(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pure := docHasMarker(fd.Doc, notePure)
			planFamily := inClusterSubtree(pass.Pkg.Path()) && isPlanFamily(fd)
			if planFamily && !pure {
				pass.Reportf(fd.Name.Pos(),
					"plan-family method %s must be annotated //ealb:pure: the plan step's purity is the golden-digest contract",
					fd.Name.Name)
			}
			if pure || planFamily {
				checkPureFunc(pass, fd)
			}
		}
	}
	return nil
}

func checkPureFunc(pass *Pass, fd *ast.FuncDecl) {
	bodySites(fd, pass.Files, pass.Info, pass.scratchIdx(), func(s site) {
		if (s.kind != siteMutate && s.kind != siteCall) || pass.suppressed(noteAllowImpure, s.pos) {
			return
		}
		if s.kind == siteMutate {
			pass.Reportf(s.pos,
				"pure plan function %s; plan state belongs in //ealb:scratch storage, or annotate //ealb:allow-impure with a reason",
				s.what)
			return
		}
		// Tracer calls are effects by definition, reachable only through the
		// Tracer interface (which the facts engine cannot see through).
		if sel, ok := s.call.Fun.(*ast.SelectorExpr); ok {
			if selection, ok := pass.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal && isTracerType(selection.Recv()) {
				pass.Reportf(s.pos,
					"pure plan function calls the tracer; decision events belong in the apply step (or annotate //ealb:allow-impure with a reason)")
				return
			}
		}
		facts := pass.calleeFacts(s.edge.callee)
		if facts == nil {
			return
		}
		if facts.Mutates != nil && !s.edge.scratchRecv {
			pass.Reportf(s.pos,
				"pure plan function calls %s, which mutates observable state (%s); move the effect to the apply step, or annotate //ealb:allow-impure with a reason",
				calleeName(s.edge.callee), facts.Mutates.Via)
		}
		if facts.Nondet != nil {
			pass.Reportf(s.pos,
				"pure plan function calls %s, which is nondeterministic (%s); a plan must replay byte-identically from its seed",
				calleeName(s.edge.callee), facts.Nondet.Via)
		}
	})
}
