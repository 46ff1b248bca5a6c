package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// agreeFiles compares two result sets metric by metric against each
// end-to-end metric's own bound and prints a pass/fail table. Two sets of
// one commit on one host must agree: a metric whose medians differ by more
// than its bound does not repeat well enough to carry the bound, and one
// whose run-to-run spread is wider than its bound cannot resolve it.
func agreeFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s — %s, seed %d, %gs x %d\n", pathA, a.Host, a.Seed, a.Seconds, a.Reps)
	fmt.Fprintf(w, "B: %s — %s, seed %d, %gs x %d\n\n", pathB, b.Host, b.Seed, b.Seconds, b.Reps)
	fmt.Fprintln(w, "| workload | metric | unit | A median | B median | differ | A spread | B spread | bound | status |")
	fmt.Fprintln(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	ok := true
	rows := 0
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			if !wa.Correct || !wb.Correct {
				fmt.Fprintf(w, "| %s | outputs | | %d failed | %d failed | | | | 0 | **FAIL** |\n", wa.Name, wa.Failed, wb.Failed)
				ok = false
			}
			for i, d := range endToEnd {
				ma, mb := wa.EndToEnd[i], wb.EndToEnd[i]
				if ma.Name != d.Name || mb.Name != d.Name {
					return false, fmt.Errorf("%s: result files do not list %s where this benchmark does", wa.Name, d.Name)
				}
				differ := ratio(math.Abs(mb.Median-ma.Median), math.Abs(ma.Median))
				status := "PASS"
				switch {
				case differ > d.Bound:
					status, ok = "**FAIL**", false
				case d.Name != "setup_s" && math.Max(ma.spread(), mb.spread()) > d.Bound:
					status, ok = "**UNRESOLVED**", false
				}
				fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
					wa.Name, d.Name, d.Unit, ma.Median, mb.Median, 100*differ, 100*ma.spread(), 100*mb.spread(), 100*d.Bound, status)
				rows++
			}
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	verdict := "ALL PASS"
	if !ok {
		verdict = "NOT IN AGREEMENT"
	}
	fmt.Fprintf(w, "\nResult: %s — %d workload x metric pairs.\n", verdict, rows)
	return ok, nil
}
