package effects

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Violation is one check failure, positioned inside the checked package.
type Violation struct {
	Pos token.Pos
	Msg string
}

// Operator is one discovered task-body entry point: a function
// declaration or literal taking a *core.Ctx parameter that transitively
// calls Acquire or registers a commit handler. Function literals that are
// themselves commit handlers are excluded — they run after the failsafe
// point by construction and are checked by CheckCommits instead.
type Operator struct {
	Name string
	Pos  token.Pos
	fr   *frame
}

// Operators discovers the task bodies declared in pkg.
func (w *World) Operators(pkg *Pkg) []*Operator {
	handlers := w.commitHandlers(pkg)
	var ops []*Operator
	consider := func(node ast.Node, ftyp *ast.FuncType, name string, pos token.Pos, encl *ast.FuncDecl) {
		if !hasCtxParam(pkg.Info, ftyp) {
			return
		}
		fr := newFrameIn(w, pkg, node, encl)
		fr.analyze()
		if !fr.acquires && !fr.registersCommit {
			// Takes a Ctx but never establishes a neighborhood or a
			// commit (helpers that only Push): no failsafe point to
			// check against.
			return
		}
		ops = append(ops, &Operator{Name: name, Pos: pos, fr: fr})
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			encl, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Body != nil {
						consider(x, x.Type, x.Name.Name, x.Pos(), nil)
					}
				case *ast.FuncLit:
					if !handlers[x] {
						consider(x, x.Type, "function literal", x.Pos(), encl)
					}
				}
				return true
			})
		}
	}
	return ops
}

// newFrameIn prepares a frame for node, a function written inside the
// declaration encl (nil: none). Local bindings resolve against all of encl,
// so a literal bound anywhere in it — a helper, or a commit handler built
// once before the loop — resolves as if written in place. Both effect
// passes resolve handlers by this one rule.
func newFrameIn(w *World, pkg *Pkg, node ast.Node, encl *ast.FuncDecl) *frame {
	fr := newFrame(w, pkg, node)
	if encl != nil && encl.Body != nil {
		fr.collectBindings(encl.Body)
	}
	return fr
}

// hasCtxParam reports whether the function type has a *core.Ctx parameter.
func hasCtxParam(info *types.Info, ftyp *ast.FuncType) bool {
	if ftyp == nil || ftyp.Params == nil {
		return false
	}
	for _, f := range ftyp.Params.List {
		if isCtxType(info.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// commitHandlers collects every function literal registered as a commit
// handler anywhere in pkg (directly or through a single-assignment
// binding in the enclosing declaration).
func (w *World) commitHandlers(pkg *Pkg) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	for _, site := range w.commitSites(pkg) {
		if site.handler != nil {
			out[site.handler] = true
		}
	}
	return out
}

// commitSite is one ctx.OnCommit registration.
type commitSite struct {
	call    *ast.CallExpr
	handler *ast.FuncLit  // nil when the argument does not resolve
	root    *ast.FuncDecl // enclosing top-level declaration
}

// commitSites finds every OnCommit registration in pkg.
func (w *World) commitSites(pkg *Pkg) []*commitSite {
	var sites []*commitSite
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// One throwaway frame per declaration supplies the binding
			// map used to resolve `h := func(...){...}; ctx.OnCommit(h)`.
			fr := newFrameIn(w, pkg, fd, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticCallee(pkg.Info, call)
				if fn == nil || fn.Name() != "OnCommit" || !isCtxMethod(fn.Origin()) {
					return true
				}
				site := &commitSite{call: call, root: fd}
				if len(call.Args) == 1 {
					site.handler = fr.resolveLit(call.Args[0])
				}
				sites = append(sites, site)
				return true
			})
		}
	}
	return sites
}

// CheckFailsafe verifies the cautiousness contract on one operator: the
// body reachable before the failsafe point — everything outside the
// registered commit handlers, including helpers any number of calls deep
// — must not write shared state. Bodies re-execute under the inspect and
// validate modes, so any pre-commit shared write breaks the rollback-free
// abort the failsafe point exists to provide.
func (op *Operator) CheckFailsafe() []Violation {
	var out []Violation
	for _, e := range op.fr.effects {
		switch e.Kind {
		case UnknownCall:
			out = append(out, Violation{Pos: e.Pos,
				Msg: "cannot prove the operator is cautious: " + e.Path + "; resolve the call or declare the callee's effects with //detlint:effects"})
		default:
			out = append(out, Violation{Pos: e.Pos,
				Msg: "shared write before the failsafe point: " + e.Path + "; cautious operators defer shared writes into ctx.OnCommit"})
		}
	}
	return out
}

// CheckCommits verifies commit purity for every OnCommit registration in
// pkg: a commit handler runs after conflict detection holding only its
// own task's neighborhood, so it may write memory reachable from what the
// task acquired (captured locals, the work item) but must not touch
// package-level state, acquire further neighborhoods, or make calls the
// analyzer cannot see.
func (w *World) CheckCommits(pkg *Pkg) []Violation {
	var out []Violation
	for _, site := range w.commitSites(pkg) {
		if site.handler == nil {
			var desc string
			if len(site.call.Args) == 1 {
				desc = types.ExprString(site.call.Args[0])
			} else {
				desc = "argument"
			}
			out = append(out, Violation{Pos: site.call.Pos(),
				Msg: "commit handler " + desc + " does not resolve to a function literal; its writes cannot be verified"})
			continue
		}
		// A handler may call helpers bound in the enclosing operator
		// body (`compress := func(...){...}` defined before the commit,
		// executed inside it).
		fr := newFrameIn(w, pkg, site.handler, site.root)
		fr.analyze()
		if fr.acquires {
			out = append(out, Violation{Pos: site.handler.Pos(),
				Msg: "commit handler calls Acquire: neighborhoods must be fixed before the failsafe point, not during commit"})
		}
		for _, e := range fr.effects {
			switch e.Kind {
			case WriteGlobal:
				out = append(out, Violation{Pos: e.Pos,
					Msg: "commit handler writes state its task never acquired: " + e.Path})
			case UnknownCall:
				out = append(out, Violation{Pos: e.Pos,
					Msg: "cannot verify commit purity: " + e.Path + "; resolve the call or declare the callee's effects with //detlint:effects"})
			}
			// WriteCaptured / WriteParam: memory reachable from the
			// task's own acquired neighborhood — the contract.
		}
	}
	return out
}

// CheckDeclared verifies every //detlint:effects declaration in pkg
// against the statically inferred summary: a declaration may widen the
// analyzer's view (that is its purpose, for dynamic calls) but must never
// narrow it — understating inferred effects would turn the annotation
// into a silent suppression.
func (w *World) CheckDeclared(pkg *Pkg) []Violation {
	var out []Violation
	if pkg.Declared == nil {
		return out
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decl := pkg.Declared(fd.Pos())
			if decl == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := w.summarize(fn)
			if sum == nil {
				continue
			}
			inferred, acquires := sum.Inferred()
			if acquires && !decl.Acquires {
				out = append(out, Violation{Pos: fd.Pos(),
					Msg: fd.Name.Name + " declares acquires=none but calls Acquire (directly or transitively); fix the //detlint:effects claim"})
			}
			if !decl.Writes {
				for _, e := range inferred {
					if e.Kind == UnknownCall {
						continue // unknowns are what the declaration vouches for
					}
					out = append(out, Violation{Pos: fd.Pos(),
						Msg: fd.Name.Name + " declares writes=none but the analyzer infers a shared write (" + e.Path + "); fix the //detlint:effects claim"})
					break
				}
			}
		}
	}
	return out
}
