package effects

import (
	"go/ast"
	"go/token"
	"go/types"
)

// effectPass walks the statements under n, recording acquire events,
// commit registrations, shared writes and unresolvable calls. Nested
// function literal bodies are skipped: a literal's effects happen when it
// is *called*, so they enter through call-site resolution (direct calls,
// single-assignment bindings, and function-typed arguments to callees
// that invoke them) — defining a helper before the failsafe point and
// running it inside the commit closure is legal and must not be flagged.
func (fr *frame) effectPass(n ast.Node) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				fr.recordWrite(lhs, "assignment")
			}
		case *ast.IncDecStmt:
			fr.recordWrite(x.X, "update")
		case *ast.SendStmt:
			fr.recordProvWrite(fr.provOf(x.Chan), x.Pos(), "send on channel "+types.ExprString(x.Chan))
		case *ast.CallExpr:
			fr.handleCall(x)
		}
		return true
	})
}

// recordWrite classifies one write target. Storage writes (the variable
// itself, or a field/element of a value held directly in it) touch only
// the variable's own storage: locals and parameters are frame-private
// there (a parameter is a copy), while package-level and captured
// variables are shared. Reference writes — any path crossing a pointer,
// slice or map — land in whatever memory the base may reference, so the
// base's provenance decides.
func (fr *frame) recordWrite(lhs ast.Expr, what string) {
	obj, ref, ok := fr.lhsTarget(lhs)
	if ok && !ref {
		p, kind := fr.classify(obj)
		switch {
		case p&provGlobal != 0 && kind == "package variable":
			fr.addEffect(Effect{Kind: WriteGlobal, Pos: lhs.Pos(),
				Path: what + " to package variable " + obj.Name()})
		case kind == "captured variable":
			fr.addEffect(Effect{Kind: WriteCaptured, Pos: lhs.Pos(),
				Path: what + " to captured variable " + obj.Name()})
		}
		return
	}
	if !ok && !ref {
		return // blank identifier or unresolved
	}
	fr.recordProvWrite(fr.provOf(lhs), lhs.Pos(), what+" through "+types.ExprString(lhs))
}

// lhsTarget peels a write target down to its base variable, tracking
// whether the path crosses a reference (pointer, slice, map). ok=false
// with ref=true means the base is not a plain variable (a call result,
// say) and the write must be classified by provenance alone; ok=false
// with ref=false means there is nothing to record (blank identifier).
func (fr *frame) lhsTarget(e ast.Expr) (obj types.Object, ref bool, ok bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil, false, false
			}
			obj = fr.pkg.Info.ObjectOf(x)
			return obj, ref, obj != nil
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			ref = true
			e = x.X
		case *ast.SelectorExpr:
			if id, isIdent := x.X.(*ast.Ident); isIdent {
				if _, isPkg := fr.pkg.Info.Uses[id].(*types.PkgName); isPkg {
					obj = fr.pkg.Info.ObjectOf(x.Sel)
					return obj, ref, obj != nil
				}
			}
			if t := fr.pkg.Info.TypeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					ref = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := fr.pkg.Info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					ref = true
				}
			}
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil, true, false
		}
	}
}

// recordProvWrite emits effects for a reference write into memory of
// provenance p. Fresh memory is frame-private and produces nothing.
func (fr *frame) recordProvWrite(p prov, pos token.Pos, desc string) {
	if p&provGlobal != 0 {
		fr.addEffect(Effect{Kind: WriteGlobal, Pos: pos, Path: desc + " (package-level state)"})
	}
	if p&provCaptured != 0 {
		fr.addEffect(Effect{Kind: WriteCaptured, Pos: pos, Path: desc + " (captured state)"})
	}
	p.params(func(i int) {
		fr.addEffect(Effect{Kind: WriteParam, Param: i, Pos: pos, Path: desc})
	})
}

// sortMutators are the sort-package entry points that reorder their
// argument in place — the one stdlib family whose argument writes matter
// to the shared-state analysis.
var sortMutators = map[string]bool{
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
}

// handleCall dispatches one call expression: builtins, Ctx protocol
// methods, sync/atomic, function literals and bindings, summarized module
// functions, and the documented external-call assumption.
func (fr *frame) handleCall(call *ast.CallExpr) {
	info := fr.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: evaluates its operand only
	}
	if name, ok := builtinName(info, call); ok {
		switch name {
		case "append", "copy", "delete", "clear":
			if len(call.Args) > 0 {
				fr.recordProvWrite(fr.provOf(call.Args[0]), call.Pos(),
					name+" into "+types.ExprString(call.Args[0]))
			}
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		fr.inlineLit(lit, call.Args)
		return
	}
	fn := staticCallee(info, call)
	if fn == nil {
		// Call through a function value: a single-assignment local
		// binding resolves statically; calling a function-typed
		// parameter is recorded for the caller to resolve; anything
		// else is opaque.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			if lit := fr.bindings[obj]; lit != nil {
				fr.inlineLit(lit, call.Args)
				return
			}
			if i, isParam := fr.params[obj]; isParam {
				fr.pcalls[i] = true
				return
			}
		}
		fr.addEffect(Effect{Kind: UnknownCall, Pos: call.Pos(),
			Path: "call through unresolved function value " + types.ExprString(call.Fun)})
		return
	}
	fn = fn.Origin()
	if isPlanOf(fn) {
		return // writes only the executing task's own plan slot
	}
	if isCtxMethod(fn) {
		switch fn.Name() {
		case "Acquire":
			fr.acquires = true
		case "OnCommit":
			fr.registersCommit = true
			if len(call.Args) == 1 {
				if lit := fr.resolveLit(call.Args[0]); lit != nil {
					fr.commits = append(fr.commits, lit)
				} else {
					fr.addEffect(Effect{Kind: UnknownCall, Pos: call.Pos(),
						Path: "OnCommit handler " + types.ExprString(call.Args[0]) + " is not a resolvable function literal"})
				}
			}
		}
		return // Push, CountAtomic, ... have no shared effect
	}
	if isAtomic, writes := isAtomicMethod(fn); isAtomic {
		if writes {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				fr.recordProvWrite(fr.provOf(sel.X), call.Pos(),
					"atomic "+fn.Name()+" on "+types.ExprString(sel.X))
			}
		}
		return
	}
	if _, known := fr.w.decls[fn]; known {
		fr.applySummary(fn, call)
		return
	}
	if fr.w.isModulePkg(fn.Pkg()) {
		fr.addEffect(Effect{Kind: UnknownCall, Pos: call.Pos(),
			Path: "dynamic call to " + fn.Name() + " (interface method or no analyzable body)"})
		return
	}
	// External call: assumed effect-free with respect to module shared
	// state (see the package doc), except the in-place sort family.
	if fn.Pkg() != nil && fn.Pkg().Path() == "sort" && sortMutators[fn.Name()] && len(call.Args) > 0 {
		fr.recordProvWrite(fr.provOf(call.Args[0]), call.Pos(),
			"sort."+fn.Name()+" of "+types.ExprString(call.Args[0]))
	}
}

// applySummary translates a summarized callee's effects into this frame
// through the call's arguments.
func (fr *frame) applySummary(fn *types.Func, call *ast.CallExpr) {
	sum := fr.w.summarize(fn)
	if sum == nil {
		fr.addEffect(Effect{Kind: UnknownCall, Pos: call.Pos(),
			Path: "call to " + fn.Name() + " with no analyzable body"})
		return
	}
	if sum.Acquires {
		fr.acquires = true
	}
	if sum.RegistersCommit {
		fr.registersCommit = true
	}
	args := fr.callArgs(call, fn)
	for _, e := range sum.Effects {
		path := fn.Name() + ": " + e.Path
		switch e.Kind {
		case WriteGlobal, WriteCaptured:
			fr.addEffect(Effect{Kind: WriteGlobal, Pos: call.Pos(), Path: path})
		case UnknownCall:
			fr.addEffect(Effect{Kind: UnknownCall, Pos: call.Pos(), Path: path})
		case WriteParam:
			if e.Param < len(args) && args[e.Param] != nil {
				fr.recordProvWrite(fr.provOf(args[e.Param]), call.Pos(), path)
			}
		}
	}
	for i := range sum.ParamCalls {
		if i >= len(args) || args[i] == nil {
			continue
		}
		fr.resolveParamCall(fn, call, args[i])
	}
}

// resolveParamCall accounts for a callee invoking the function value we
// pass as arg: a literal (or binding) inlines into this frame — the
// mesh.Acquirer pattern, where an operator's ctx.Acquire closure runs two
// calls deep — a forwarded parameter propagates to our own ParamCalls,
// and a named function merges its summary (with untracked arguments).
func (fr *frame) resolveParamCall(fn *types.Func, call *ast.CallExpr, arg ast.Expr) {
	if lit := fr.resolveLit(arg); lit != nil {
		fr.inlineLit(lit, nil)
		return
	}
	if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
		obj := fr.pkg.Info.ObjectOf(id)
		if j, isParam := fr.params[obj]; isParam {
			fr.pcalls[j] = true
			return
		}
		if f2, isFn := obj.(*types.Func); isFn {
			fr.mergeOpaqueCall(f2.Origin(), arg.Pos(), fn.Name())
			return
		}
	}
	if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
		if f2, isFn := fr.pkg.Info.Uses[sel.Sel].(*types.Func); isFn {
			fr.mergeOpaqueCall(f2.Origin(), arg.Pos(), fn.Name())
			return
		}
	}
	fr.addEffect(Effect{Kind: UnknownCall, Pos: arg.Pos(),
		Path: fn.Name() + " invokes unresolved function value " + types.ExprString(arg)})
}

// mergeOpaqueCall merges the summary of a function passed by reference:
// its argument-directed writes cannot be mapped (we do not see the call),
// so parameter writes degrade to an unknown-call effect.
func (fr *frame) mergeOpaqueCall(f2 *types.Func, pos token.Pos, via string) {
	if _, known := fr.w.decls[f2]; !known {
		if fr.w.isModulePkg(f2.Pkg()) {
			fr.addEffect(Effect{Kind: UnknownCall, Pos: pos,
				Path: via + " invokes " + f2.Name() + " (no analyzable body)"})
		}
		return
	}
	sum := fr.w.summarize(f2)
	if sum == nil {
		return
	}
	if sum.Acquires {
		fr.acquires = true
	}
	if sum.RegistersCommit {
		fr.registersCommit = true
	}
	for _, e := range sum.Effects {
		path := via + " invokes " + f2.Name() + ": " + e.Path
		switch e.Kind {
		case WriteGlobal, WriteCaptured:
			fr.addEffect(Effect{Kind: WriteGlobal, Pos: pos, Path: path})
		case UnknownCall:
			fr.addEffect(Effect{Kind: UnknownCall, Pos: pos, Path: path})
		case WriteParam:
			fr.addEffect(Effect{Kind: UnknownCall, Pos: pos,
				Path: via + " invokes " + f2.Name() + ", which writes through an argument the analyzer cannot see"})
		}
	}
}

// resolveLit resolves an expression to a function literal: either the
// literal itself or a single-assignment local bound to one.
func (fr *frame) resolveLit(e ast.Expr) *ast.FuncLit {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return x
	case *ast.Ident:
		return fr.bindings[fr.pkg.Info.ObjectOf(x)]
	}
	return nil
}

// inlineLit walks a function literal's body inside this frame. When the
// call arguments are known, the literal's parameters take on their
// provenance so writes through them classify correctly; when a callee
// invokes the literal (args == nil), its parameter writes are invisible —
// a documented under-approximation.
func (fr *frame) inlineLit(lit *ast.FuncLit, args []ast.Expr) {
	if fr.analyzing[lit] {
		return
	}
	fr.analyzing[lit] = true
	defer delete(fr.analyzing, lit)
	if args != nil && lit.Type.Params != nil {
		i := 0
		for _, f := range lit.Type.Params.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			for _, name := range f.Names {
				if obj := fr.pkg.Info.Defs[name]; obj != nil && i < len(args) {
					fr.vars[obj] |= fr.provOf(args[i])
				}
				i++
			}
		}
	}
	fr.effectPass(lit.Body)
}
