package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config scopes the passes to the packages where determinism matters. It is
// read from one file (detlint.conf at the module root by default) with a
// line-oriented format:
//
//	# comment
//	critical <module-relative path prefix>
//	exempt   <module-relative path prefix>
//	exempt   <module-relative path prefix> <rule[,rule...]>
//
// "critical" marks packages on the deterministic path: all passes run
// there. "exempt" with one field removes packages from analysis entirely
// and wins over critical; it is the allowlist for measurement-only code
// (internal/stats, internal/harness) that reads the wall clock by design.
// "exempt" with a rule list disables only those rules for the prefix while
// every other pass still runs — the right scope for packages like
// internal/obs that read the clock by design (observational timestamps)
// but must still never range over maps or draw global randomness when
// building event payloads. The prefix "*" matches every package. Paths are
// module-relative ("internal/core"); a prefix matches itself and
// everything below it ("internal/apps" covers "internal/apps/bfs").
type Config struct {
	CriticalPrefixes []string
	ExemptPrefixes   []string
	// RuleExemptions maps a path prefix to the pass names disabled there.
	RuleExemptions map[string][]string
	// Rules, when non-empty, restricts the run to the named passes (the
	// CLI's -run flag).
	Rules []string
}

// DefaultConfig covers this repository's layout: every package is critical
// except the measurement and experiment-harness side.
func DefaultConfig() *Config {
	return &Config{
		CriticalPrefixes: []string{"*"},
		ExemptPrefixes:   []string{"internal/harness", "internal/stats", "internal/cachesim", "internal/linreg", "internal/lint", "examples"},
		RuleExemptions:   map[string][]string{"internal/obs": {"wallclock"}},
	}
}

// ParseConfig parses the configuration file at path.
func ParseConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := &Config{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && !(len(fields) == 3 && fields[0] == "exempt") {
			return nil, fmt.Errorf("%s:%d: want `critical <prefix>`, `exempt <prefix>` or `exempt <prefix> <rule,...>`, got %q", path, i+1, line)
		}
		prefix := strings.Trim(fields[1], "/")
		switch fields[0] {
		case "critical":
			cfg.CriticalPrefixes = append(cfg.CriticalPrefixes, prefix)
		case "exempt":
			if len(fields) == 2 {
				cfg.ExemptPrefixes = append(cfg.ExemptPrefixes, prefix)
				break
			}
			known := make(map[string]bool)
			for _, p := range Passes() {
				known[p.Name] = true
			}
			for _, rule := range strings.Split(fields[2], ",") {
				rule = strings.TrimSpace(rule)
				if !known[rule] {
					return nil, fmt.Errorf("%s:%d: unknown rule %q (have: %s)", path, i+1, rule, ruleNames())
				}
				if cfg.RuleExemptions == nil {
					cfg.RuleExemptions = make(map[string][]string)
				}
				cfg.RuleExemptions[prefix] = append(cfg.RuleExemptions[prefix], rule)
			}
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", path, i+1, fields[0])
		}
	}
	return cfg, nil
}

// Critical reports whether the module-relative package path rel is on the
// determinism-critical list.
func (c *Config) Critical(rel string) bool { return matchAny(c.CriticalPrefixes, rel) }

// Exempt reports whether rel is excluded from analysis.
func (c *Config) Exempt(rel string) bool { return matchAny(c.ExemptPrefixes, rel) }

// ExemptRule reports whether the named rule is disabled for rel by a
// rule-scoped exemption. Other rules still run on rel.
func (c *Config) ExemptRule(rel, rule string) bool {
	for prefix, rules := range c.RuleExemptions {
		if !matchAny([]string{prefix}, rel) {
			continue
		}
		for _, r := range rules {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// RuleEnabled reports whether the named pass is part of this run: all
// passes when Rules is empty, otherwise only the listed ones.
func (c *Config) RuleEnabled(rule string) bool {
	if len(c.Rules) == 0 {
		return true
	}
	for _, r := range c.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// SetRules validates and installs a -run style rule subset.
func (c *Config) SetRules(list string) error {
	known := make(map[string]bool)
	for _, p := range Passes() {
		known[p.Name] = true
	}
	for _, r := range strings.Split(list, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !known[r] {
			return fmt.Errorf("unknown rule %q (have: %s)", r, ruleNames())
		}
		c.Rules = append(c.Rules, r)
	}
	return nil
}

// UnmatchedPrefixes returns the configured path prefixes that do not name
// an existing directory under modRoot — almost always a typo or a stale
// entry after a package move, which would otherwise silently widen or
// narrow the analysis scope.
func (c *Config) UnmatchedPrefixes(modRoot string) []string {
	var out []string
	seen := make(map[string]bool)
	check := func(prefix string) {
		if prefix == "*" || prefix == "" || prefix == "." || seen[prefix] {
			return
		}
		seen[prefix] = true
		st, err := os.Stat(filepath.Join(modRoot, filepath.FromSlash(prefix)))
		if err != nil || !st.IsDir() {
			out = append(out, prefix)
		}
	}
	for _, p := range c.CriticalPrefixes {
		check(p)
	}
	for _, p := range c.ExemptPrefixes {
		check(p)
	}
	for p := range c.RuleExemptions {
		check(p)
	}
	sort.Strings(out)
	return out
}

func matchAny(prefixes []string, rel string) bool {
	for _, p := range prefixes {
		if p == "*" || p == rel || strings.HasPrefix(rel, p+"/") || (p == "." && rel == "") {
			return true
		}
	}
	return false
}
