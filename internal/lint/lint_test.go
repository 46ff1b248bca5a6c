package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want ([a-z]+)`)

// wantedFindings scans the fixture sources for `// want <rule>` marks.
func wantedFindings(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	want := make(map[string][]string) // "file:line" -> rules
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(pkg.Dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				want[key] = append(want[key], m[1])
			}
		}
	}
	return want
}

// checkFixture runs all passes over the named fixture with every package
// critical and compares findings against the `// want` marks exactly: a
// missing finding and an unexpected finding are both failures, which is
// what proves both halves of each pass — it catches the seeded hazards and
// it honors //detlint:ignore on the suppressed ones.
func checkFixture(t *testing.T, name string) {
	t.Helper()
	pkg := loadFixture(t, name)
	cfg := &Config{CriticalPrefixes: []string{"*"}}
	got := make(map[string][]string)
	for _, f := range Run(cfg, []*Package{pkg}) {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}
	want := wantedFindings(t, pkg)
	for key, rules := range want {
		sort.Strings(rules)
		g := got[key]
		sort.Strings(g)
		if strings.Join(rules, ",") != strings.Join(g, ",") {
			t.Errorf("%s: want rules %v, got %v", key, rules, g)
		}
	}
	for key, rules := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected finding(s) %v", key, rules)
		}
	}
}

func TestMapRangePass(t *testing.T)       { checkFixture(t, "maprange") }
func TestWallClockPass(t *testing.T)      { checkFixture(t, "wallclock") }
func TestGlobalRandPass(t *testing.T)     { checkFixture(t, "globalrand") }
func TestGoroutineOrderPass(t *testing.T) { checkFixture(t, "goroutineorder") }

// The interprocedural effect passes: shared writes hidden behind helper
// calls, commit-handler purity, and order-taint reaching fingerprint sinks.
func TestFailsafePass(t *testing.T)   { checkFixture(t, "failsafe") }
func TestCommitPurePass(t *testing.T) { checkFixture(t, "commitpure") }
func TestTaintFPPass(t *testing.T)    { checkFixture(t, "taintfp") }

// TestCautiousFixture runs the cautiousness-contract fixture: direct
// shared writes before and after the failsafe point are failsafe findings,
// local writes and Push-only helpers are not.
func TestCautiousFixture(t *testing.T) { checkFixture(t, "cautious") }

// TestSessionScopeFixture pins the analyzer's coverage of the session
// layer's proof object: map-iteration order leaking into a chain hash is
// flagged (maprange at the loop, taintfp at the sink — including through
// an intermediate payload slice), while the real package's discipline —
// an insertion-ordered ids slice driving every sweep with the map demoted
// to lookups — produces no findings.
func TestSessionScopeFixture(t *testing.T) { checkFixture(t, "sessionscope") }

// TestPersistentWorkerPoolFixture pins the analyzer's coverage of the
// engine's persistent-worker substrate (internal/para.Pool): an
// unannotated parked-worker spawn is still a goroutineorder finding, and
// the annotated form documenting the merge order is accepted.
func TestPersistentWorkerPoolFixture(t *testing.T) { checkFixture(t, "poolspawn") }

// TestObsScopeAllRulesFire proves the obsscope fixture seeds real hazards:
// with no rule exemptions both the clock read and the map-range payload
// are flagged.
func TestObsScopeAllRulesFire(t *testing.T) { checkFixture(t, "obsscope") }

// TestObsScopeRuleExemption is the internal/obs configuration in miniature:
// `exempt <pkg> wallclock` silences only the wallclock rule, while an obs
// event payload built from a map range is still flagged.
func TestObsScopeRuleExemption(t *testing.T) {
	pkg := loadFixture(t, "obsscope")
	cfg := &Config{
		CriticalPrefixes: []string{"*"},
		RuleExemptions:   map[string][]string{"fixture/obsscope": {"wallclock"}},
	}
	findings := Run(cfg, []*Package{pkg})
	if len(findings) != 1 {
		t.Fatalf("want exactly the maprange finding, got %v", findings)
	}
	if findings[0].Rule != "maprange" {
		t.Fatalf("want maprange, got %s", findings[0])
	}
	for _, f := range findings {
		if f.Rule == "wallclock" {
			t.Fatalf("wallclock finding survived its rule-scoped exemption: %s", f)
		}
	}
}

// TestServeScopeAllRulesFire proves the servescope fixture seeds real
// hazards: with no rule exemptions the latency/deadline clock reads and
// the map-range over the job-results map are all flagged.
func TestServeScopeAllRulesFire(t *testing.T) { checkFixture(t, "servescope") }

// TestServeScopeRuleExemption is the internal/serve configuration in
// miniature: `exempt <pkg> wallclock` tolerates the serving layer's
// latency and deadline clock reads while a response assembled by ranging
// over a job-results map is still flagged.
func TestServeScopeRuleExemption(t *testing.T) {
	pkg := loadFixture(t, "servescope")
	cfg := &Config{
		CriticalPrefixes: []string{"*"},
		RuleExemptions:   map[string][]string{"fixture/servescope": {"wallclock"}},
	}
	findings := Run(cfg, []*Package{pkg})
	if len(findings) != 1 {
		t.Fatalf("want exactly the maprange finding, got %v", findings)
	}
	if findings[0].Rule != "maprange" {
		t.Fatalf("want maprange, got %s", findings[0])
	}
}

func TestMalformedDirectivesAreReported(t *testing.T) {
	pkg := loadFixture(t, "directive")
	cfg := &Config{CriticalPrefixes: []string{"*"}}
	findings := Run(cfg, []*Package{pkg})
	if len(findings) != 8 {
		t.Fatalf("want 8 directive findings, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Rule != "directive" {
			t.Errorf("want rule directive, got %s (%s)", f.Rule, f)
		}
	}
}

func TestScopingCriticalAndExempt(t *testing.T) {
	pkg := loadFixture(t, "maprange")

	// Not on the critical list: package-scoped passes stay silent.
	if got := Run(&Config{CriticalPrefixes: []string{"internal/never"}}, []*Package{pkg}); len(got) != 0 {
		t.Errorf("non-critical package produced findings: %v", got)
	}
	// Exempt wins over critical.
	cfg := &Config{CriticalPrefixes: []string{"*"}, ExemptPrefixes: []string{"fixture"}}
	if got := Run(cfg, []*Package{pkg}); len(got) != 0 {
		t.Errorf("exempt package produced findings: %v", got)
	}
}

func TestFailsafeRunsOutsideCriticalScope(t *testing.T) {
	// The failsafe pass keys off the Ctx parameter, not package identity:
	// a task body in a non-critical package is still checked.
	pkg := loadFixture(t, "cautious")
	got := Run(&Config{CriticalPrefixes: []string{"internal/never"}}, []*Package{pkg})
	if len(got) == 0 {
		t.Fatal("failsafe did not run outside the critical scope")
	}
	for _, f := range got {
		if f.Rule != "failsafe" {
			t.Errorf("unexpected rule outside critical scope: %s", f)
		}
	}
}

func TestConfigParse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "detlint.conf")
	content := "# comment\ncritical internal/core\ncritical internal/apps\n\nexempt internal/harness\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rel      string
		critical bool
		exempt   bool
	}{
		{"internal/core", true, false},
		{"internal/core/sub", true, false},
		{"internal/corentine", false, false}, // prefix must stop at a path boundary
		{"internal/apps/bfs", true, false},
		{"internal/harness", false, true},
		{"internal/marks", false, false},
	}
	for _, c := range cases {
		if got := cfg.Critical(c.rel); got != c.critical {
			t.Errorf("Critical(%q) = %v, want %v", c.rel, got, c.critical)
		}
		if got := cfg.Exempt(c.rel); got != c.exempt {
			t.Errorf("Exempt(%q) = %v, want %v", c.rel, got, c.exempt)
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.conf")
	if err := os.WriteFile(bad, []byte("frobnicate internal/core\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseConfig(bad); err == nil {
		t.Error("malformed config accepted")
	}
}

func TestConfigParseRuleScopedExemptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "detlint.conf")
	content := "critical *\nexempt internal/obs wallclock\nexempt internal/stats\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Exempt("internal/obs") {
		t.Error("rule-scoped exemption must not exempt the whole package")
	}
	if !cfg.ExemptRule("internal/obs", "wallclock") {
		t.Error("wallclock not exempted for internal/obs")
	}
	if !cfg.ExemptRule("internal/obs/sub", "wallclock") {
		t.Error("rule exemption must cover subpackages")
	}
	if cfg.ExemptRule("internal/obs", "maprange") {
		t.Error("maprange wrongly exempted")
	}
	if cfg.ExemptRule("internal/core", "wallclock") {
		t.Error("wallclock exempted outside the prefix")
	}

	// Multiple rules per line.
	multi := filepath.Join(t.TempDir(), "multi.conf")
	if err := os.WriteFile(multi, []byte("exempt internal/obs wallclock,maprange\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mcfg, err := ParseConfig(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !mcfg.ExemptRule("internal/obs", "wallclock") || !mcfg.ExemptRule("internal/obs", "maprange") {
		t.Error("comma-separated rule list not parsed")
	}

	// Unknown rule names are configuration errors, not silent no-ops.
	bad := filepath.Join(t.TempDir(), "bad.conf")
	if err := os.WriteFile(bad, []byte("exempt internal/obs nosuchrule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseConfig(bad); err == nil {
		t.Error("unknown rule name accepted")
	}
}

func TestMatchExpandsPatterns(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.Match("internal/marks")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Rel != "internal/marks" {
		t.Fatalf("Match(internal/marks) = %v", pkgs)
	}
	pkgs, err = l.Match("internal/apps/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("Match(internal/apps/...) found only %d packages", len(pkgs))
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Rel, "internal/apps") {
			t.Errorf("unexpected package %s", p.Rel)
		}
	}
}
