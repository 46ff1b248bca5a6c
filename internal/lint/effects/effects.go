// Package effects is detlint's interprocedural effect analyzer: the
// machinery behind the failsafe, commitpure and taintfp passes.
//
// It computes per-function *effect summaries* — what a function acquires
// (through the *core.Ctx protocol), which shared memory it writes, which
// function-valued parameters it calls — over a whole program at once, and
// then checks the paper's cautiousness contract (§2.1) at every operator
// entry point: a task body performs all shared reads through Ctx.Acquire
// before its failsafe point and defers every shared write into the
// Ctx.OnCommit closure, so a conflict detected at the failsafe point can
// abort the task by discarding it, with no rollback.
//
// "Shared" is decided by provenance, not syntax: a write lands in shared
// memory when the written location is reachable from a function parameter,
// a captured variable or package-level state; writes into memory the
// function allocated itself (a freshly built Cavity, a local plan slice)
// are invisible to other tasks and are never flagged. Provenance flows
// through assignments, slicing, range statements and call results, and
// effect summaries compose across static calls — including closures passed
// through function-typed parameters, the mesh.Acquirer pattern the dmr/dt
// operators use to thread ctx.Acquire two calls deep.
//
// Soundness caveats (documented in DESIGN.md §6): dynamic calls the
// analyzer cannot resolve (interface methods, stored function values)
// degrade to a finding unless the enclosing callee carries a checked
// //detlint:effects declaration; calls into other modules are assumed to
// write nothing but memory reachable from their arguments is not tracked
// beyond the sync/atomic special case; recursion is summarized from the
// first visit (an under-approximation).
package effects

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Pkg is one analyzed package, supplied by the lint driver.
type Pkg struct {
	// Path is the package's import path (diagnostic only).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// Declared looks up a //detlint:effects declaration covering the
	// given position (a function declaration or literal start). Nil
	// callbacks mean "no declarations".
	Declared func(pos token.Pos) *Declared
	// Ordered reports whether a //detlint:ordered annotation covers the
	// given position (a map range). Nil means "never".
	Ordered func(pos token.Pos) bool
}

// Declared is a parsed //detlint:effects directive: the function's effect
// summary as claimed by the author, used where dynamic calls blind the
// analyzer. The claim is itself checked: a declaration that understates
// the statically inferred effects is a finding.
type Declared struct {
	Acquires bool // acquires=ctx: calls Ctx.Acquire, directly or transitively
	Writes   bool // writes=shared: writes memory visible outside the call
	Reads    bool // reads=shared (informational; not currently enforced)
	Reason   string
}

// EffectKind classifies one entry of a summary.
type EffectKind uint8

const (
	// WriteGlobal is a write to package-level state (any package's).
	WriteGlobal EffectKind = iota
	// WriteParam is a write through the memory of parameter Param.
	WriteParam
	// WriteCaptured is a write to memory captured from outside the
	// analyzed frame (only function literals can produce it).
	WriteCaptured
	// UnknownCall is a call whose effects the analyzer cannot see.
	UnknownCall
)

// Effect is one caller-visible effect of a function.
type Effect struct {
	Kind EffectKind
	// Param is the parameter index for WriteParam (receiver = 0 shifts
	// ordinary parameters up by one on methods).
	Param int
	// Pos is the position of the effect inside the summarized function.
	Pos token.Pos
	// Path describes the effect for reporting, innermost first
	// ("applyCavity: write through parameter cav").
	Path string
}

// Summary is the caller-visible behavior of one package-level function.
type Summary struct {
	// Acquires reports a transitive Ctx.Acquire call.
	Acquires bool
	// RegistersCommit reports a transitive Ctx.OnCommit call.
	RegistersCommit bool
	// Effects are the shared writes and unknown calls visible to callers.
	Effects []Effect
	// ParamCalls marks function-typed parameters the function may call
	// (directly or by forwarding them to another ParamCalls callee).
	ParamCalls map[int]bool
	// RetProv is the provenance of pointer-carrying return values,
	// expressed in the summarized function's own frame.
	RetProv prov
	// Declared is the author's //detlint:effects claim, if any. When
	// present it replaces the inferred effects for callers.
	Declared *Declared
	// inferred keeps the raw pre-declaration effects for the
	// declaration-vs-inference check.
	inferred         []Effect
	inferredAcquires bool
}

// Inferred returns the raw statically inferred effects and acquire flag,
// before any //detlint:effects declaration was applied.
func (s *Summary) Inferred() ([]Effect, bool) { return s.inferred, s.inferredAcquires }

// World holds the cross-package analysis state: every known function
// declaration, memoized summaries and taint facts.
type World struct {
	pkgs []*Pkg
	// paths is the set of analyzed package import paths; a function from
	// one of these with no body in decls is a dynamic-dispatch target.
	paths map[string]bool
	// decls maps package-level functions and methods to their syntax.
	decls map[*types.Func]*fnDecl
	sums  map[*types.Func]*Summary
	open  map[*types.Func]bool

	taints    map[*types.Func]*taintSum
	taintOpen map[*types.Func]bool
}

type fnDecl struct {
	decl *ast.FuncDecl
	pkg  *Pkg
}

// NewWorld indexes the given packages. Packages share one token.FileSet.
func NewWorld(pkgs []*Pkg) *World {
	w := &World{
		pkgs:      pkgs,
		paths:     make(map[string]bool),
		decls:     make(map[*types.Func]*fnDecl),
		sums:      make(map[*types.Func]*Summary),
		open:      make(map[*types.Func]bool),
		taints:    make(map[*types.Func]*taintSum),
		taintOpen: make(map[*types.Func]bool),
	}
	for _, p := range pkgs {
		w.paths[p.Path] = true
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					w.decls[fn] = &fnDecl{decl: fd, pkg: p}
				}
			}
		}
	}
	return w
}

// prov is a provenance set: which memory a value may reference. The low
// bits are category flags; parameter indices occupy the high bits.
type prov uint64

const (
	provFresh    prov = 1 << 0 // memory allocated inside the frame
	provGlobal   prov = 1 << 1 // package-level state
	provCaptured prov = 1 << 2 // variables captured from outside the frame
	provParamLo       = 8      // bit i+provParamLo: parameter i
	maxParams         = 48
)

func paramBit(i int) prov {
	if i >= maxParams {
		return provGlobal // overflow: treat conservatively as shared
	}
	return 1 << (provParamLo + i)
}

// shared reports whether the provenance includes any caller-visible memory.
func (p prov) shared() bool { return p&^provFresh != 0 }

// params iterates the parameter indices present in p.
func (p prov) params(f func(int)) {
	for i := 0; i < maxParams; i++ {
		if p&(1<<(provParamLo+i)) != 0 {
			f(i)
		}
	}
}

// frame is the per-function analysis state. A frame covers one root
// function (declaration or literal) plus every function literal it calls:
// closure effects are resolved against the root's scope, which is how a
// captured-ctx acquirer inside an operator counts as the operator's own
// acquire.
type frame struct {
	w    *World
	pkg  *Pkg
	root ast.Node      // *ast.FuncDecl or *ast.FuncLit
	ftyp *ast.FuncType // the root's type syntax
	body *ast.BlockStmt

	params map[types.Object]int // param object -> index (receiver = 0 on methods)
	vars   map[types.Object]prov
	// bindings maps local variables assigned exactly one function
	// literal to that literal, so calls through them resolve statically.
	bindings map[types.Object]*ast.FuncLit
	// analyzing guards against recursive literal inlining.
	analyzing map[*ast.FuncLit]bool

	// results
	acquires        bool
	registersCommit bool
	effects         []Effect
	effectSeen      map[string]bool
	pcalls          map[int]bool   // function-typed parameters this frame calls
	commits         []*ast.FuncLit // closures registered via OnCommit
	retProv         prov
}

// isModulePkg reports whether p is one of the analyzed packages.
func (w *World) isModulePkg(p *types.Package) bool {
	return p != nil && w.paths[p.Path()]
}

// newFrame prepares a frame for the function rooted at node.
func newFrame(w *World, pkg *Pkg, node ast.Node) *frame {
	fr := &frame{
		w: w, pkg: pkg, root: node,
		params:     make(map[types.Object]int),
		vars:       make(map[types.Object]prov),
		bindings:   make(map[types.Object]*ast.FuncLit),
		analyzing:  make(map[*ast.FuncLit]bool),
		effectSeen: make(map[string]bool),
		pcalls:     make(map[int]bool),
	}
	var ftyp *ast.FuncType
	var recv *ast.FieldList
	switch n := node.(type) {
	case *ast.FuncDecl:
		ftyp, recv, fr.body = n.Type, n.Recv, n.Body
	case *ast.FuncLit:
		ftyp, fr.body = n.Type, n.Body
	}
	fr.ftyp = ftyp
	idx := 0
	if recv != nil {
		for _, f := range recv.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fr.params[obj] = idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
	if ftyp != nil && ftyp.Params != nil {
		for _, f := range ftyp.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					fr.params[obj] = idx
				}
				idx++
			}
		}
	}
	for obj, i := range fr.params {
		fr.vars[obj] = paramBit(i)
	}
	return fr
}

// analyze runs the frame to a fixpoint: provenance first (so later
// statements see bindings made anywhere in the body), then one effect
// pass.
func (fr *frame) analyze() {
	if fr.body == nil {
		return
	}
	fr.collectBindings(fr.body)
	// Provenance fixpoint: assignments are order-independent here, so a
	// few passes converge (provenance sets only grow).
	for i := 0; i < 4; i++ {
		if !fr.provPass(fr.body) {
			break
		}
	}
	fr.effectPass(fr.body)
}

// collectBindings records local `name := func(...){...}` bindings in the
// whole root (including nested literals: msf binds helpers inside the
// operator body). A variable assigned more than once is not a binding.
func (fr *frame) collectBindings(body ast.Node) {
	count := make(map[types.Object]int)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := fr.pkg.Info.ObjectOf(id)
				if obj == nil {
					continue
				}
				count[obj]++
				if i < len(st.Rhs) && len(st.Lhs) == len(st.Rhs) {
					if lit, ok := ast.Unparen(st.Rhs[i]).(*ast.FuncLit); ok {
						fr.bindings[obj] = lit
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				obj := fr.pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				count[obj]++
				if i < len(st.Values) {
					if lit, ok := ast.Unparen(st.Values[i]).(*ast.FuncLit); ok {
						fr.bindings[obj] = lit
					}
				}
			}
		}
		return true
	})
	for obj, n := range count {
		if n > 1 {
			delete(fr.bindings, obj)
		}
	}
}

// provPass propagates provenance through one walk; reports change.
func (fr *frame) provPass(body ast.Node) (changed bool) {
	join := func(obj types.Object, p prov) {
		if obj == nil || p == 0 {
			return
		}
		if fr.vars[obj]|p != fr.vars[obj] {
			fr.vars[obj] |= p
			changed = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := fr.pkg.Info.ObjectOf(id)
				if obj == nil || !fr.isLocal(obj) {
					continue
				}
				var p prov
				if len(st.Rhs) == len(st.Lhs) {
					p = fr.provOf(st.Rhs[i])
				} else if len(st.Rhs) == 1 {
					// multi-value: call or type assert; join all.
					p = fr.provOf(st.Rhs[0])
				}
				join(obj, p)
			}
		case *ast.RangeStmt:
			p := fr.provOf(st.X)
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if obj := fr.pkg.Info.ObjectOf(id); obj != nil && fr.isLocal(obj) {
						join(obj, p)
					}
				}
			}
		case *ast.GenDecl:
			// var x = expr
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if obj := fr.pkg.Info.Defs[name]; obj != nil {
							join(obj, fr.provOf(vs.Values[i]))
						}
					}
				}
			}
		}
		return true
	})
	return changed
}

// isLocal reports whether obj is declared inside the frame root (and is
// not one of its parameters).
func (fr *frame) isLocal(obj types.Object) bool {
	if _, isParam := fr.params[obj]; isParam {
		return false
	}
	return declaredWithin(obj, fr.root)
}

// classify places an object relative to the frame.
func (fr *frame) classify(obj types.Object) (p prov, kind string) {
	if obj == nil {
		return provFresh, "value"
	}
	if i, ok := fr.params[obj]; ok {
		return paramBit(i), "parameter"
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return provGlobal, "package variable"
	}
	if declaredWithin(obj, fr.root) {
		if p, ok := fr.vars[obj]; ok && p != 0 {
			return p, "local"
		}
		return provFresh, "local"
	}
	return provCaptured, "captured variable"
}

// provOf computes the provenance of the memory an expression's value may
// reference. Plain values (numbers, bools) come out fresh; what matters is
// pointer-carrying data.
func (fr *frame) provOf(e ast.Expr) prov {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" || x.Name == "nil" {
			return provFresh
		}
		obj := fr.pkg.Info.ObjectOf(x)
		if _, isFn := obj.(*types.Func); isFn {
			return provFresh
		}
		// A value that cannot carry references (an int loop variable, say)
		// references nothing, wherever it was copied from: without this,
		// ranging over a shared slice would poison the scalar element
		// variable and every fresh slice it is appended into.
		if v, ok := obj.(*types.Var); ok && !pointerCarrying(v.Type()) {
			return provFresh
		}
		p, _ := fr.classify(obj)
		return p
	case *ast.SelectorExpr:
		// Qualified package identifier?
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := fr.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				p, _ := fr.classify(fr.pkg.Info.ObjectOf(x.Sel))
				return p
			}
		}
		return fr.provOf(x.X)
	case *ast.IndexExpr:
		return fr.provOf(x.X)
	case *ast.IndexListExpr:
		return fr.provOf(x.X)
	case *ast.StarExpr:
		return fr.provOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fr.addrProv(x.X)
		}
		return provFresh
	case *ast.SliceExpr:
		// s[:0:0] deliberately drops the backing array: every append
		// reallocates, so the result is fresh.
		if x.Slice3 && isZeroLit(x.High) && isZeroLit(x.Max) {
			return provFresh
		}
		return fr.provOf(x.X)
	case *ast.CompositeLit:
		return provFresh
	case *ast.CallExpr:
		return fr.callProv(x)
	case *ast.TypeAssertExpr:
		return fr.provOf(x.X)
	case *ast.BinaryExpr, *ast.BasicLit, *ast.FuncLit:
		return provFresh
	}
	return provFresh
}

// addrProv is the provenance of an expression's *storage* — what `&e`
// references. It differs from provOf exactly where the scalar shortcut
// applies: a captured int carries no references, but its address does
// reference captured memory.
func (fr *frame) addrProv(e ast.Expr) prov {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return provFresh
		}
		p, _ := fr.classify(fr.pkg.Info.ObjectOf(x))
		return p
	case *ast.SelectorExpr:
		// Qualified package identifier?
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := fr.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				p, _ := fr.classify(fr.pkg.Info.ObjectOf(x.Sel))
				return p
			}
		}
		// &p.f through a pointer lands in the pointed-to memory; through a
		// value it lands in the value's own storage.
		if t := fr.pkg.Info.TypeOf(x.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return fr.provOf(x.X)
			}
		}
		return fr.addrProv(x.X)
	case *ast.IndexExpr:
		if t := fr.pkg.Info.TypeOf(x.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				return fr.provOf(x.X)
			}
		}
		return fr.addrProv(x.X) // array value: the array's own storage
	case *ast.StarExpr:
		return fr.provOf(x.X)
	case *ast.CompositeLit:
		return provFresh
	}
	return fr.provOf(e)
}

func isZeroLit(e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && b.Value == "0"
}

// callProv is the provenance of a call's results.
func (fr *frame) callProv(call *ast.CallExpr) prov {
	// Conversions look like calls.
	if fr.pkg.Info != nil {
		if tv, ok := fr.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			if len(call.Args) == 1 {
				return fr.provOf(call.Args[0])
			}
			return provFresh
		}
	}
	if name, ok := builtinName(fr.pkg.Info, call); ok {
		switch name {
		case "append":
			p := provFresh
			for _, a := range call.Args {
				p |= fr.provOf(a)
			}
			return p
		case "make", "new":
			return provFresh
		default:
			return provFresh
		}
	}
	if fn := staticCallee(fr.pkg.Info, call); fn != nil {
		fn = fn.Origin()
		if isCtxMethod(fn) {
			// Item is the task's item, which the task shares with whoever
			// built it; every other method's result references nothing.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Name() == "Item" {
				return fr.provOf(sel.X)
			}
			return provFresh
		}
		if isPlanOf(fn) {
			// The first PlanOf of a body zeroes the plan, so it holds only
			// what this task stored in it: memory the task allocated.
			return provFresh
		}
		if sum := fr.w.summarize(fn); sum != nil {
			return fr.translateProv(sum.RetProv, call, fn)
		}
	}
	// Unknown callee: results may alias any pointer-carrying argument.
	p := provFresh
	for _, a := range call.Args {
		if pointerCarrying(fr.pkg.Info.TypeOf(a)) {
			p |= fr.provOf(a)
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		p |= fr.provOf(sel.X)
	}
	return p
}

// translateProv rewrites a callee-frame provenance into this frame via the
// call's arguments.
func (fr *frame) translateProv(p prov, call *ast.CallExpr, fn *types.Func) prov {
	out := p & (provFresh | provGlobal)
	if p&provCaptured != 0 {
		out |= provGlobal // captured state of a package function: shared
	}
	args := fr.callArgs(call, fn)
	p.params(func(i int) {
		if i < len(args) && args[i] != nil {
			out |= fr.provOf(args[i])
		} else {
			out |= provFresh
		}
	})
	return out
}

// callArgs aligns the call's arguments with the callee's parameter
// indexing (receiver first for methods).
func (fr *frame) callArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
		return append([]ast.Expr{nil}, call.Args...)
	}
	return call.Args
}

// pointerCarrying reports whether values of t can reference other memory.
func pointerCarrying(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerCarrying(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return pointerCarrying(u.Elem())
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer
	}
	return false
}

// declaredWithin reports whether obj's declaration lies inside node n.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() != 0 && n.Pos() <= obj.Pos() && obj.Pos() <= n.End()
}

// builtinName identifies calls to builtins.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

// staticCallee resolves a call to a package-level function or method,
// including an explicitly instantiated generic one, f[T](x).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isCtxType reports whether t (possibly behind a pointer) is the runtime's
// core.Ctx[T] task context. The root package's galois.Ctx is an alias of
// it, materialized as *types.Alias since Go 1.23, so aliases unwrap first.
func isCtxType(t types.Type) bool {
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Ctx" || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), "internal/core")
}

// isCtxMethod reports whether fn is a method on core.Ctx.
func isCtxMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isCtxType(sig.Recv().Type())
}

// isPlanOf reports whether fn is core.PlanOf, the task's plan slot.
func isPlanOf(fn *types.Func) bool {
	return fn.Name() == "PlanOf" && fn.Pkg() != nil && pathHasSuffix(fn.Pkg().Path(), "internal/core")
}

func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// atomicWriteMethods are the sync/atomic mutators; Load is a read.
var atomicWriteMethods = map[string]bool{
	"Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// isAtomicMethod reports whether fn is a sync/atomic method and whether it
// mutates its receiver.
func isAtomicMethod(fn *types.Func) (isAtomic, writes bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false, false
	}
	return true, atomicWriteMethods[fn.Name()]
}

// summarize computes (and memoizes) the caller-visible summary of a
// package-level function. Recursive cycles summarize from the partial
// state of the first visit.
func (w *World) summarize(fn *types.Func) *Summary {
	if s, ok := w.sums[fn]; ok {
		return s
	}
	d, ok := w.decls[fn]
	if !ok {
		return nil // external or bodyless: caller decides
	}
	if w.open[fn] {
		// Recursion: an empty summary for the back edge; the outer
		// visit completes the real one.
		return &Summary{}
	}
	w.open[fn] = true
	defer delete(w.open, fn)

	fr := newFrame(w, d.pkg, d.decl)
	fr.analyze()
	fr.collectReturns()

	sum := &Summary{
		Acquires:         fr.acquires,
		RegistersCommit:  fr.registersCommit,
		RetProv:          fr.retProv,
		Effects:          fr.effects,
		inferredAcquires: fr.acquires,
	}
	sum.inferred = sum.Effects
	sum.ParamCalls = fr.paramCalls()
	if d.pkg.Declared != nil {
		if decl := d.pkg.Declared(d.decl.Pos()); decl != nil {
			sum.Declared = decl
			// The declaration replaces the inferred summary for
			// callers; unknown calls are resolved by authority.
			sum.Acquires = decl.Acquires
			sum.Effects = nil
			if decl.Writes {
				sum.Effects = []Effect{{
					Kind: WriteGlobal, Pos: d.decl.Pos(),
					Path: fn.Name() + ": declared shared write (//detlint:effects)",
				}}
			}
		}
	}
	w.sums[fn] = sum
	return sum
}

// paramCalls extracts which function-typed parameters the frame calls.
// The effect pass records them as synthetic effects on fr.pcalls.
func (fr *frame) paramCalls() map[int]bool {
	if len(fr.pcalls) == 0 {
		return nil
	}
	out := make(map[int]bool, len(fr.pcalls))
	for i := range fr.pcalls {
		out[i] = true
	}
	return out
}

// collectReturns folds the provenance of every pointer-carrying return
// expression into fr.retProv.
func (fr *frame) collectReturns() {
	if fr.body == nil {
		return
	}
	ast.Inspect(fr.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			if pointerCarrying(fr.pkg.Info.TypeOf(e)) {
				fr.retProv |= fr.provOf(e)
			}
		}
		return true
	})
	// Named results assigned anywhere in the body.
	if fr.ftyp != nil && fr.ftyp.Results != nil {
		for _, f := range fr.ftyp.Results.List {
			for _, name := range f.Names {
				if obj := fr.pkg.Info.Defs[name]; obj != nil {
					if pointerCarrying(obj.Type()) {
						fr.retProv |= fr.vars[obj] | provFresh
					}
				}
			}
		}
	}
}

// addEffect records a deduplicated frame effect.
func (fr *frame) addEffect(e Effect) {
	key := fmt.Sprintf("%d/%d/%s", e.Kind, e.Param, e.Path)
	if fr.effectSeen[key] {
		return
	}
	fr.effectSeen[key] = true
	fr.effects = append(fr.effects, e)
}
