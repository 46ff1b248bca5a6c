// Package lint implements detlint, a static determinism-hazard analyzer
// for this repository's deterministic runtime (see DESIGN.md, "Determinism
// hazards and how we check them").
//
// The paper's guarantee — committed output is a pure function of the input,
// independent of thread count and machine — is a runtime property that
// static analysis cannot prove, but its common failure modes are all
// syntactically visible: iterating an unordered map, reading the wall
// clock, drawing from a process-global RNG, writing shared state before a
// task's failsafe point, or racing goroutines/channels outside the
// scheduler's control. detlint flags each of those on the packages declared
// determinism-critical in detlint.conf. Deliberate exceptions carry a
// //detlint:ignore annotation with a reason, so every hazard in the tree is
// either fixed or argued for in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"galois/internal/lint/effects"
)

// Finding is one reported hazard.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Pass is one analysis. Run inspects a single package and reports through
// the Unit; suppression and scoping are handled by the runner.
type Pass struct {
	Name string
	// Doc is a one-line description, shown by `detlint -rules`.
	Doc string
	// Everywhere marks passes that run on all packages, not only the
	// determinism-critical set (they key off their own evidence, like a
	// Ctx parameter, rather than package identity).
	Everywhere bool
	Run        func(u *Unit)
}

// Passes returns all registered passes in reporting order.
func Passes() []*Pass {
	return []*Pass{
		mapRangePass(),
		wallClockPass(),
		globalRandPass(),
		failsafePass(),
		commitPurePass(),
		taintFPPass(),
		goroutineOrderPass(),
	}
}

// Unit is the per-(package, pass) context handed to a pass.
type Unit struct {
	Pkg  *Package
	Cfg  *Config
	pass *Pass

	// world and epkg back the interprocedural passes: the whole-program
	// effect analyzer and this package's view into it.
	world *effects.World
	epkg  *effects.Pkg

	findings []Finding
}

// Reportf records a finding at pos unless a directive suppresses it.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	p := u.Pkg.Fset.Position(pos)
	if u.Pkg.suppressed(u.pass.Name, p) {
		return
	}
	u.findings = append(u.findings, Finding{Pos: p, Rule: u.pass.Name, Msg: fmt.Sprintf(format, args...)})
}

// Run executes every pass over every package and returns findings sorted by
// file, line and rule. Malformed //detlint: directives are reported as
// findings of the pseudo-rule "directive". The interprocedural passes
// resolve calls within the given packages only; use RunProgram to widen
// their world beyond the reported set.
func Run(cfg *Config, pkgs []*Package) []Finding {
	return RunProgram(cfg, pkgs, pkgs)
}

// RunProgram is Run with an explicit analysis world: findings are reported
// for pkgs, while the effect analyzer resolves cross-package calls against
// world (a superset of pkgs — typically everything the loader pulled in).
func RunProgram(cfg *Config, pkgs, world []*Package) []Finding {
	views := make(map[*Package]*effects.Pkg, len(world))
	var epkgs []*effects.Pkg
	addView := func(p *Package) {
		if _, ok := views[p]; !ok {
			views[p] = effectsView(p)
			epkgs = append(epkgs, views[p])
		}
	}
	for _, p := range world {
		addView(p)
	}
	for _, p := range pkgs {
		addView(p)
	}
	w := effects.NewWorld(epkgs)

	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, runPackage(cfg, pkg, w, views[pkg])...)
	}
	sortFindings(out)
	return out
}

// runPackage executes the enabled passes over one package and reports its
// malformed directives.
func runPackage(cfg *Config, pkg *Package, w *effects.World, epkg *effects.Pkg) []Finding {
	var out []Finding
	if cfg.Exempt(pkg.Rel) {
		return nil
	}
	critical := cfg.Critical(pkg.Rel)
	for _, pass := range Passes() {
		if !critical && !pass.Everywhere {
			continue
		}
		if !cfg.RuleEnabled(pass.Name) {
			continue
		}
		if cfg.ExemptRule(pkg.Rel, pass.Name) {
			continue
		}
		u := &Unit{Pkg: pkg, Cfg: cfg, pass: pass, world: w, epkg: epkg}
		pass.Run(u)
		out = append(out, u.findings...)
	}
	for _, byLine := range pkg.directives {
		for _, ds := range byLine {
			for _, d := range ds {
				if d.verb == "malformed" {
					out = append(out, Finding{
						Pos:  pkg.Fset.Position(d.pos),
						Rule: "directive",
						Msg:  d.reason,
					})
				}
			}
		}
	}
	return out
}

// effectsView adapts a loaded package to the effect analyzer's interface,
// wiring directive lookups into it: //detlint:effects declarations on
// function declarations and //detlint:ordered (or ignore taintfp)
// annotations on map ranges.
func effectsView(p *Package) *effects.Pkg {
	return &effects.Pkg{
		Path:  p.Path,
		Fset:  p.Fset,
		Files: p.Files,
		Info:  p.Info,
		Declared: func(pos token.Pos) *effects.Declared {
			return p.declaredEffects(p.Fset.Position(pos))
		},
		Ordered: func(pos token.Pos) bool {
			return p.suppressed("taintfp", p.Fset.Position(pos))
		},
	}
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
}

// inspect walks every file of the unit's package.
func (u *Unit) inspect(fn func(ast.Node) bool) {
	for _, f := range u.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// ruleNames returns the names of all passes, for CLI help.
func ruleNames() string {
	var names []string
	for _, p := range Passes() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}
