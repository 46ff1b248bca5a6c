// Command galoisbench is the repository's benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and a traced pass that
// splits the same work into per-layer numbers. BENCHMARK.json at the
// repository root names the metrics; README.md in this directory defines
// them.
//
//	benchmark/run.sh --workload engine-mesh --seed 42 --seconds 15 --trace 0
//	benchmark/run.sh                      # every workload, both passes
//	benchmark/run.sh -list                # workload and metric names
//	benchmark/run.sh -agree a.json b.json # do two full sets agree?
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, each pass in a fresh child process)")
		seed     = flag.Uint64("seed", goldenSeed, "workload seed: the same seed gives the same inputs and specs")
		seconds  = flag.Float64("seconds", 15, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs and a few ops per cell: checks the plumbing, measures nothing")
		outDir   = flag.String("out", defaultOutDir(), "directory for trace.json and result files")
		list     = flag.Bool("list", false, "print workload and metric names and exit")
		agree    = flag.Bool("agree", false, "compare two result files (arguments) metric by metric against each bound")
		reps     = flag.Int("reps", 1, "with every workload: untraced runs per workload, on consecutive seeds")
		resultTo = flag.String("o", "", "with every workload: write the result set to this file (default <out>/result.json)")
	)
	flag.Parse()

	switch {
	case *list:
		printList(os.Stdout)
	case *agree:
		if flag.NArg() != 2 {
			fatal(2, "usage: -agree a.json b.json")
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		w := findWorkload(*workload)
		if w == nil {
			fatal(2, "unknown workload %q (see -list)", *workload)
		}
		env := &runEnv{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			threads: hostThreads(), outDir: *outDir, log: os.Stdout}
		fmt.Fprintln(env.log, hostInfo())
		res, err := w.run(env)
		if err != nil {
			fatal(1, "%s: %v", w.Name, err)
		}
		res.print(env.log)
		fmt.Println(res.resultLine())
		if !res.correct() {
			os.Exit(1)
		}
	default:
		path := *resultTo
		if path == "" {
			path = *outDir + "/result.json"
		}
		ok, err := runAll(*seed, *seconds, *reps, *smoke, *outDir, path)
		if err != nil {
			fatal(1, "%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "galoisbench: "+format+"\n", args...)
	os.Exit(code)
}

// defaultOutDir is benchmark/out when run from the repository root, as the
// driver and run.sh do, and out when run from this directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// hostInfo is the one line that says where numbers were taken.
func hostInfo() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d P=%d cpu=%q %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), hostThreads(), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// printList prints every name BENCHMARK.json must carry, one per line, and
// what each per-layer metric should move.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s — %s\n", wl.Name, wl.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s [%s] %s is better, bound %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s [%s] %s is better — should move: %s\n", m.Name, m.Unit, m.Better, m.Moves)
	}
}

// setMetric is one metric of a result set: its value in every run made, and
// their quartiles.
type setMetric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	quartiles
}

// setWorkload is one workload's part of a result set.
type setWorkload struct {
	Name      string      `json:"name"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	EndToEnd  []setMetric `json:"end_to_end"`
	PerLayer  []setMetric `json:"per_layer"`
}

// resultSet is one full set of runs: every workload, reps untraced runs and
// one traced pass each. Two of them from one commit on one host must agree
// (-agree) before either may carry a claim.
type resultSet struct {
	Host      string        `json:"host"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Reps      int           `json:"reps"`
	Workloads []setWorkload `json:"workloads"`
}

// child runs one pass of one workload in a fresh process, so heap state and
// the resident-set high-water mark are the workload's own, forwards its
// table, and parses the result line.
func child(workload string, seed uint64, seconds float64, trace, smoke bool, outDir string) (line resultLine, err error) {
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr, "-out", outDir, "-smoke="+strconv.FormatBool(smoke))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	out := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(out, '\n')
	fmt.Println(out[:max(cut, 0)])
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return line, runErr
	}
	if err := json.Unmarshal([]byte(out[cut+1:]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	return line, nil
}

// runAll is the one command: every workload's end-to-end metrics with
// tracing off, then its traced pass, every metric printed by name with
// unit, sample count and quartiles, every output checked.
func runAll(seed uint64, seconds float64, reps int, smoke bool, outDir, path string) (bool, error) {
	set := resultSet{Host: hostInfo(), Seed: seed, Seconds: seconds, Reps: reps}
	fmt.Println(set.Host)
	ok := true
	for _, w := range workloads {
		sw := setWorkload{Name: w.Name, Correct: true}
		for _, d := range endToEnd {
			sw.EndToEnd = append(sw.EndToEnd, setMetric{Name: d.Name, Unit: d.Unit})
		}
		for rep := 0; rep < reps; rep++ {
			line, err := child(w.Name, seed+uint64(rep), seconds, false, smoke, outDir)
			if err != nil {
				return false, err
			}
			sw.Correct = sw.Correct && line.Correct
			sw.Attempted += line.Attempted
			sw.Failed += line.Failed
			for i := range sw.EndToEnd {
				sw.EndToEnd[i].Values = append(sw.EndToEnd[i].Values, line.Metrics[sw.EndToEnd[i].Name].Value)
			}
		}
		line, err := child(w.Name, seed, seconds, true, smoke, outDir)
		if err != nil {
			return false, err
		}
		sw.Correct = sw.Correct && line.Correct
		sw.Attempted += line.Attempted
		sw.Failed += line.Failed
		for _, d := range perLayer {
			v := line.Metrics[d.Name].Value
			sw.PerLayer = append(sw.PerLayer, setMetric{Name: d.Name, Unit: d.Unit, Values: []float64{v}, quartiles: summarize([]float64{v})})
		}
		fmt.Printf("== %s — over %d untraced run(s)\n", w.Name, reps)
		for i := range sw.EndToEnd {
			m := &sw.EndToEnd[i]
			m.quartiles = summarize(m.Values)
			fmt.Printf("   %-16s [%s] n=%d q1=%.6g median=%.6g q3=%.6g spread=%.2f%%\n", m.Name, m.Unit, m.N, m.Q1, m.Median, m.Q3, 100*m.spread())
		}
		ok = ok && sw.Correct
		set.Workloads = append(set.Workloads, sw)
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result set written to %s\n", path)
	return ok, nil
}
