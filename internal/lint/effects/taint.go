package effects

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Taint tracking for the taintfp pass: values whose content depends on a
// nondeterministic order — map iteration, wall-clock reads, global RNG
// draws — must not flow into fingerprint sinks (hash writes, internal/canon's
// writers, receipt Fingerprint fields), because the det-mode guarantee is
// exactly that fingerprints are pure functions of the input.
//
// The analysis is object-based and flow-insensitive within one function
// region (a declaration plus its nested literals), with summaries for
// calls into module functions: whether a callee's return is internally
// order-tainted, which parameters' taint reaches its return, and which
// parameters it feeds into a sink. Two deliberate judgment calls keep the
// pass usable: passing a tainted value through an in-place sort cleanses
// it (collect-sort-emit is the canonical deterministic merge), and a
// //detlint:ordered annotation on the map range suppresses the source.

// taint is the lattice value for one object or expression.
type taint struct {
	src    string // non-empty: description of an internal nondet source
	params uint64 // parameter indices whose taint would flow here
}

func (t taint) union(u taint) taint {
	if t.src == "" {
		t.src = u.src
	}
	t.params |= u.params
	return t
}

func (t taint) zero() bool { return t.src == "" && t.params == 0 }

// taintSum is the cross-call summary of one function.
type taintSum struct {
	retSource  string // non-empty: return carries internally sourced taint
	retParams  uint64 // parameters whose taint flows to the return
	sinkParams uint64 // parameters that reach a fingerprint sink inside
}

// taintSummary computes (and memoizes) fn's taint summary. Cycles
// summarize as clean from the back edge.
func (w *World) taintSummary(fn *types.Func) *taintSum {
	if s, ok := w.taints[fn]; ok {
		return s
	}
	d, ok := w.decls[fn]
	if !ok {
		return nil
	}
	if w.taintOpen[fn] {
		return &taintSum{}
	}
	w.taintOpen[fn] = true
	defer delete(w.taintOpen, fn)
	ta := newTaintAnalysis(w, d.pkg, d.decl)
	ta.run()
	w.taints[fn] = ta.sum
	return ta.sum
}

// CheckTaint runs the source→sink analysis over every function declared
// in pkg and returns the violations.
func (w *World) CheckTaint(pkg *Pkg) []Violation {
	var out []Violation
	seen := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ta := newTaintAnalysis(w, pkg, fd)
			ta.report = true
			ta.run()
			for _, v := range ta.violations {
				key := fmt.Sprintf("%d:%s", v.Pos, v.Msg)
				if !seen[key] {
					seen[key] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

type taintAnalysis struct {
	w    *World
	pkg  *Pkg
	decl *ast.FuncDecl

	params   map[types.Object]int
	tainted  map[types.Object]taint
	cleansed map[types.Object]bool

	report     bool
	violations []Violation
	sum        *taintSum
}

func newTaintAnalysis(w *World, pkg *Pkg, decl *ast.FuncDecl) *taintAnalysis {
	ta := &taintAnalysis{
		w: w, pkg: pkg, decl: decl,
		params:   make(map[types.Object]int),
		tainted:  make(map[types.Object]taint),
		cleansed: make(map[types.Object]bool),
		sum:      &taintSum{},
	}
	idx := 0
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ta.params[obj] = idx
				}
				idx++
			}
			if len(f.Names) == 0 {
				idx++
			}
		}
	}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			if len(f.Names) == 0 {
				idx++
				continue
			}
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ta.params[obj] = idx
				}
				idx++
			}
		}
	}
	return ta
}

func (ta *taintAnalysis) run() {
	// Propagation to fixpoint: taint only grows, so a few passes settle
	// the deepest realistic assignment chains.
	for i := 0; i < 6; i++ {
		if !ta.propagate() {
			break
		}
	}
	ta.finish()
}

// objTaint is the effective taint of a variable: sorting a collected
// slice in place restores a deterministic order, so a sorted variable's
// internal-source taint is forgiven (its parameter flows remain).
func (ta *taintAnalysis) objTaint(obj types.Object) taint {
	if obj == nil {
		return taint{}
	}
	t := ta.tainted[obj]
	if i, ok := ta.params[obj]; ok && i < 64 {
		t.params |= 1 << i
	}
	if ta.cleansed[obj] {
		t.src = ""
	}
	return t
}

// propagate performs one assignment-propagation pass; reports change.
func (ta *taintAnalysis) propagate() (changed bool) {
	info := ta.pkg.Info
	join := func(obj types.Object, t taint) {
		if obj == nil || t.zero() {
			return
		}
		old := ta.tainted[obj]
		nw := old.union(t)
		if nw != old {
			ta.tainted[obj] = nw
			changed = true
		}
	}
	joinExprTarget := func(e ast.Expr, t taint) {
		// Taint the base variable of the written path: writing a
		// tainted value into s[i] or x.f makes the container tainted.
		if base := baseIdentOf(e); base != nil {
			join(info.ObjectOf(base), t)
		}
	}
	ast.Inspect(ta.decl, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var t taint
				if len(st.Rhs) == len(st.Lhs) {
					t = ta.exprTaint(st.Rhs[i])
				} else if len(st.Rhs) == 1 {
					t = ta.exprTaint(st.Rhs[0])
				}
				joinExprTarget(lhs, t)
			}
		case *ast.RangeStmt:
			t := ta.exprTaint(st.X)
			if typ := info.TypeOf(st.X); typ != nil {
				if _, isMap := typ.Underlying().(*types.Map); isMap {
					if ta.pkg.Ordered == nil || !ta.pkg.Ordered(st.Pos()) {
						t = t.union(taint{src: "iteration over map " + types.ExprString(st.X)})
					}
				}
			}
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if e != nil {
					joinExprTarget(e, t)
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) {
					join(info.Defs[name], ta.exprTaint(st.Values[i]))
				}
			}
		case *ast.CallExpr:
			ta.noteCleanse(st)
		}
		return true
	})
	return changed
}

// noteCleanse records in-place sorts: sort.X(keys) / slices.Sort(keys)
// restore determinism for the sorted variable.
func (ta *taintAnalysis) noteCleanse(call *ast.CallExpr) {
	fn := staticCallee(ta.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return
	}
	path := fn.Pkg().Path()
	isSort := path == "sort" && sortMutators[fn.Name()]
	isSlices := path == "slices" && strings.HasPrefix(fn.Name(), "Sort")
	if !isSort && !isSlices {
		return
	}
	if base := baseIdentOf(call.Args[0]); base != nil {
		if obj := ta.pkg.Info.ObjectOf(base); obj != nil && !ta.cleansed[obj] {
			ta.cleansed[obj] = true
		}
	}
}

// exprTaint computes the taint of an expression's value.
func (ta *taintAnalysis) exprTaint(e ast.Expr) taint {
	info := ta.pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return ta.objTaint(info.ObjectOf(x))
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return ta.objTaint(info.ObjectOf(x.Sel))
			}
		}
		t := ta.exprTaint(x.X)
		if x.Sel.Name == "Cached" {
			// A receipt's Cached flag is serving metadata — which copy of a
			// result answered, not what the result is. Any read of it is a
			// taint source so the flag can never be folded into a
			// fingerprint; branching on it (if r.Cached { hits++ }) stays
			// clean because control flow does not propagate taint.
			t = t.union(taint{src: "cache-status flag (Cached field read)"})
		}
		return t
	case *ast.IndexExpr:
		return ta.exprTaint(x.X)
	case *ast.IndexListExpr:
		return ta.exprTaint(x.X)
	case *ast.StarExpr:
		return ta.exprTaint(x.X)
	case *ast.SliceExpr:
		return ta.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return ta.exprTaint(x.X)
	case *ast.UnaryExpr:
		return ta.exprTaint(x.X)
	case *ast.BinaryExpr:
		return ta.exprTaint(x.X).union(ta.exprTaint(x.Y))
	case *ast.CompositeLit:
		var t taint
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.union(ta.exprTaint(kv.Value))
			} else {
				t = t.union(ta.exprTaint(el))
			}
		}
		return t
	case *ast.CallExpr:
		return ta.callTaint(x)
	}
	return taint{}
}

// callTaint computes the taint of a call's results and flags tainted
// arguments flowing into callee sink parameters.
func (ta *taintAnalysis) callTaint(call *ast.CallExpr) taint {
	info := ta.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return ta.exprTaint(call.Args[0])
		}
		return taint{}
	}
	if name, ok := builtinName(info, call); ok {
		switch name {
		case "len", "cap", "make", "new":
			// len(m) and cap are order-independent even on tainted
			// containers.
			return taint{}
		default:
			var t taint
			for _, a := range call.Args {
				t = t.union(ta.exprTaint(a))
			}
			return t
		}
	}
	fn := staticCallee(info, call)
	if fn != nil {
		fn = fn.Origin()
		if src := nondetSource(fn); src != "" {
			return taint{src: src}
		}
		if sum := ta.w.taintSummary(fn); sum != nil {
			args := alignArgs(call, fn)
			var t taint
			if sum.retSource != "" {
				t.src = sum.retSource
			}
			for i := 0; i < 64 && i < len(args); i++ {
				if args[i] == nil {
					continue
				}
				at := ta.exprTaint(args[i])
				if sum.retParams&(1<<i) != 0 {
					t = t.union(at)
				}
				// A canon writer is reported as a sink by checkSinkCall.
				if sum.sinkParams&(1<<i) != 0 && at.src != "" && ta.report && !isCanonWriter(fn) {
					ta.violationf(call.Pos(), "order-dependent value (%s) passed to %s, which feeds it into a fingerprint sink; sort or annotate the source with //detlint:ordered", at.src, fn.Name())
				}
				if sum.sinkParams&(1<<i) != 0 {
					ta.sum.sinkParams |= at.params
				}
			}
			return t
		}
	}
	// External or unresolved call: results conservatively carry the
	// union of the argument (and receiver) taints — fmt.Sprintf of
	// map-ordered data is still map-ordered data.
	var t taint
	for _, a := range call.Args {
		t = t.union(ta.exprTaint(a))
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t = t.union(ta.exprTaint(sel.X))
	}
	return t
}

// nondetSource recognizes stdlib calls whose results are inherently
// order- or schedule-dependent.
func nondetSource(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "wall-clock read (time." + fn.Name() + ")"
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil {
			return "global RNG draw (rand." + fn.Name() + ")"
		}
	}
	return ""
}

// finish walks once more to find sinks and fold returns into the summary.
func (ta *taintAnalysis) finish() {
	info := ta.pkg.Info
	ast.Inspect(ta.decl, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			ta.checkSinkCall(st)
			// Statement-position calls never flow through exprTaint, so
			// the callee-summary sink check (tainted argument reaching a
			// sink parameter) runs here; duplicates are deduplicated by
			// position upstream.
			ta.callTaint(st)
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || !isFingerprintName(sel.Sel.Name) {
					continue
				}
				var t taint
				if len(st.Rhs) == len(st.Lhs) {
					t = ta.exprTaint(st.Rhs[i])
				} else if len(st.Rhs) == 1 {
					t = ta.exprTaint(st.Rhs[0])
				}
				ta.sinkHit(st.Pos(), t, "assignment to "+sel.Sel.Name+" field")
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && isFingerprintName(key.Name) {
					ta.sinkHit(kv.Pos(), ta.exprTaint(kv.Value), key.Name+" field")
				}
			}
		case *ast.ReturnStmt:
			for _, e := range st.Results {
				t := ta.exprTaint(e)
				if t.src != "" && ta.sum.retSource == "" {
					ta.sum.retSource = t.src
				}
				ta.sum.retParams |= t.params
			}
		}
		return true
	})
	// Named results assigned anywhere count as returned.
	if ta.decl.Type.Results != nil {
		for _, f := range ta.decl.Type.Results.List {
			for _, name := range f.Names {
				t := ta.objTaint(info.Defs[name])
				if t.src != "" && ta.sum.retSource == "" {
					ta.sum.retSource = t.src
				}
				ta.sum.retParams |= t.params
			}
		}
	}
}

// checkSinkCall flags tainted arguments to hash/digest writes and
// fingerprint constructors.
func (ta *taintAnalysis) checkSinkCall(call *ast.CallExpr) {
	fn := staticCallee(ta.pkg.Info, call)
	if fn == nil {
		return
	}
	sink := ""
	switch {
	case isHashSink(fn):
		sink = "hash " + fn.Name()
	case isCanonWriter(fn):
		sink = "canon " + fn.Name()
	case ta.isHashSinkRecv(call, fn):
		// hash.Hash embeds io.Writer, so Write resolves to an io method;
		// the receiver's static type identifies the digest.
		sink = "hash " + fn.Name()
	case isFingerprintName(fn.Name()):
		sink = fn.Name() + " call"
	}
	if sink == "" {
		return
	}
	for _, a := range call.Args {
		t := ta.exprTaint(a)
		ta.sinkHit(call.Pos(), t, sink)
	}
	// A tainted receiver state flowing into Sum is covered by the
	// argument writes that tainted it; receiver tracking is not needed.
}

// sinkHit records a violation (report mode) and the parameter flows
// (summary mode) for a value reaching a fingerprint sink.
func (ta *taintAnalysis) sinkHit(pos token.Pos, t taint, sink string) {
	if t.src != "" && ta.report {
		ta.violationf(pos, "order-dependent value reaches fingerprint sink (%s): %s; sort the data or annotate the source with //detlint:ordered", sink, t.src)
	}
	ta.sum.sinkParams |= t.params
}

func (ta *taintAnalysis) violationf(pos token.Pos, format string, args ...any) {
	ta.violations = append(ta.violations, Violation{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// isHashSink reports whether fn digests its arguments: a package-level
// function of a hash or crypto package (sha256.Sum256) or a digest-building
// method of one of their types (hash.Hash.Write, Sum32, …).
func isHashSink(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil || !isHashPkgPath(fn.Pkg().Path()) {
		return false
	}
	return sig.Recv() == nil || isSinkMethodName(fn.Name())
}

// isCanonWriter reports whether fn is exported by internal/canon, the
// layer that writes every receipt's preimage and digest.
func isCanonWriter(fn *types.Func) bool {
	return fn.Exported() && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/internal/canon")
}

// isHashSinkRecv reports whether the call is a sink-named method invoked
// on a value whose static type belongs to a hash or crypto package —
// catching interface methods inherited through embedding (io.Writer).
func (ta *taintAnalysis) isHashSinkRecv(call *ast.CallExpr, fn *types.Func) bool {
	if !isSinkMethodName(fn.Name()) {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := ta.pkg.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return isHashPkgPath(named.Obj().Pkg().Path())
}

func isSinkMethodName(name string) bool {
	switch name {
	case "Write", "WriteString", "Sum", "Sum32", "Sum64":
		return true
	}
	return false
}

func isHashPkgPath(path string) bool {
	return path == "hash" || strings.HasPrefix(path, "hash/") ||
		path == "crypto" || strings.HasPrefix(path, "crypto/")
}

// isFingerprintName matches the repository's fingerprint/receipt naming.
func isFingerprintName(name string) bool {
	return name == "Fingerprint" || name == "WriteFingerprint"
}

// alignArgs aligns a call's arguments with the callee's parameter
// indexing (receiver first for methods).
func alignArgs(call *ast.CallExpr, fn *types.Func) []ast.Expr {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return append([]ast.Expr{sel.X}, call.Args...)
		}
		return append([]ast.Expr{nil}, call.Args...)
	}
	return call.Args
}

// baseIdentOf peels selector/index/star/paren/slice chains to the base
// identifier, nil when the base is not one.
func baseIdentOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
