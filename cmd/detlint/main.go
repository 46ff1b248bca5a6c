// Command detlint statically checks this repository for determinism
// hazards: map iteration, wall-clock reads, global RNG draws, shared
// writes before a task's failsafe point, impure commit handlers,
// order-dependent values flowing into fingerprints, and
// scheduling-dependent goroutines/selects on the deterministic path.
//
// Usage:
//
//	go run ./cmd/detlint [flags] [patterns...]
//
//	-config file   config file (default: detlint.conf at the module root)
//	-rules         list the analysis passes and exit
//	-run list      comma-separated rule subset to run (e.g. failsafe,taintfp)
//	-json          write findings to stdout as a JSON array instead of text
//	-json-out f    write the JSON array to f and keep text on stdout
//
// Patterns follow the go tool ("./...", "internal/core"); the default is
// "./..." from the enclosing module root. Findings print one per line as
//
//	file:line: [rule] message
//
// and any finding makes the exit status 1. See DESIGN.md, "Determinism
// hazards and how we check them" and "Effect analysis and the failsafe
// theorem", for the rule catalogue and the //detlint:ignore suppression
// syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"galois/internal/lint"
)

func main() {
	configPath := flag.String("config", "", "config file (default: detlint.conf at the module root, if present)")
	showRules := flag.Bool("rules", false, "list the analysis passes and exit")
	runRules := flag.String("run", "", "comma-separated subset of rules to run (default: all)")
	jsonOut := flag.Bool("json", false, "write findings to stdout as JSON instead of text")
	jsonPath := flag.String("json-out", "", "also write findings as JSON to this file")
	flag.Parse()

	if *showRules {
		for _, p := range lint.Passes() {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	n, err := run(options{
		configPath: *configPath,
		runRules:   *runRules,
		jsonStdout: *jsonOut,
		jsonPath:   *jsonPath,
		patterns:   flag.Args(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

type options struct {
	configPath string
	runRules   string
	jsonStdout bool
	jsonPath   string
	patterns   []string
}

// jsonFinding is the machine-readable record for one finding; the file is
// module-relative so output is stable across checkouts.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// run returns the number of findings; a non-nil error means the analysis
// itself could not run.
func run(opts options) (int, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	modRoot, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return 0, err
	}

	cfg := lint.DefaultConfig()
	switch {
	case opts.configPath != "":
		if cfg, err = lint.ParseConfig(opts.configPath); err != nil {
			return 0, err
		}
	default:
		if p := filepath.Join(modRoot, "detlint.conf"); fileExists(p) {
			if cfg, err = lint.ParseConfig(p); err != nil {
				return 0, err
			}
		}
	}
	if opts.runRules != "" {
		if err := cfg.SetRules(opts.runRules); err != nil {
			return 0, err
		}
	}
	for _, prefix := range cfg.UnmatchedPrefixes(modRoot) {
		fmt.Fprintf(os.Stderr, "detlint: warning: config prefix %q matches no directory under %s\n", prefix, modRoot)
	}

	patterns := opts.patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		return 0, err
	}

	pkgs, err := loader.Match(patterns...)
	if err != nil {
		return 0, err
	}
	// The world is everything the loader pulled in, so cross-package
	// summaries resolve.
	findings := lint.RunProgram(cfg, pkgs, loader.Loaded())

	records := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		file := f.Pos.Filename
		if rel, err := filepath.Rel(modRoot, file); err == nil && !filepath.IsAbs(rel) {
			file = filepath.ToSlash(rel)
		}
		records = append(records, jsonFinding{File: file, Line: f.Pos.Line, Rule: f.Rule, Msg: f.Msg})
	}

	if opts.jsonStdout {
		if err := writeJSON(os.Stdout, records); err != nil {
			return 0, err
		}
	} else {
		for _, r := range records {
			fmt.Printf("%s:%d: [%s] %s\n", r.File, r.Line, r.Rule, r.Msg)
		}
	}
	if opts.jsonPath != "" {
		f, err := os.Create(opts.jsonPath)
		if err != nil {
			return 0, err
		}
		if err := writeJSON(f, records); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}

	for _, p := range loader.Loaded() {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "detlint: note: %s: %v\n", p.Path, terr)
		}
	}
	return len(findings), nil
}

func writeJSON(w io.Writer, records []jsonFinding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

func fileExists(p string) bool {
	st, err := os.Stat(p)
	return err == nil && !st.IsDir()
}
