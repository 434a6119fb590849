// Command bench is the repository's wall-clock ledger: it drives the
// simulator's public functions from outside on four workloads and reports
// what producing the paper's numbers costs the host, next to the numbers
// themselves.
//
//	bench -workload W -seed N -seconds S -trace 0   one workload, end-to-end metrics
//	bench -workload W -seed N -seconds S -trace 1   one workload, per-layer metrics
//	bench [-out ledger.json] [-spans spans.json]    every workload, both ways, one child process each
//	bench -compare A.json B.json                    apply each metric's bound to two ledgers
//
// See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	// defaultSeed is the seed the numbers in README.md were taken with;
	// heldOutSeed is never used while a change is being written, so a claim
	// can be checked on inputs it was not tuned on.
	defaultSeed = 2001
	heldOutSeed = 7919
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 20
	// buildDir is the one directory of the checkout the benchmark writes to.
	buildDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: every workload, one child process each)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Float64("seconds", defaultSeconds, "seconds of timed repetitions per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: one traced repetition and the per-layer metrics")
	spansPath := fs.String("spans", "", "with tracing, write the spans to this file as JSON")
	out := fs.String("out", "", "all-workload mode: write the ledger to this file")
	verbose := fs.Bool("v", false, "print every repetition's wall time to standard error")
	compare := fs.Bool("compare", false, "compare two ledgers: bench -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two ledger files")
			return 2
		}
		return compareLedgers(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace %d; want 0 or 1\n", *trace)
		return 2
	}
	if *workload == "" {
		common := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}
		return runAll(common, *out, *spansPath)
	}

	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rc := runConfig{workload: w, seed: *seed, seconds: *seconds, sz: fullSizes, setups: minSetups, tmpDir: buildDir, verbose: *verbose}
	var res *runResult
	var err error
	if *trace == 1 {
		res, err = runTraced(rc)
	} else {
		res, err = runUntraced(rc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if *spansPath != "" && res.spans != nil {
		if err := writeSpans(*spansPath, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricOrder returns the names of the metrics a run of this kind reports,
// in table order.
func metricOrder(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes the human-readable rows, a "detail:" line carrying the
// full result for the all-workload mode, and last the one-object summary the
// benchmark contract asks for.
func printResult(w *os.File, res *runResult) {
	fmt.Fprintf(w, "workload %s seed %d trace %t GOMAXPROCS %d\n", res.Workload, res.Seed, res.Trace, runtime.GOMAXPROCS(0))
	for _, d := range metricOrder(res.Trace) {
		v := res.Metrics[d.Name]
		if v.N > 1 {
			fmt.Fprintf(w, "  %-34s %14.6g %-14s q1 %.6g q3 %.6g min %.6g max %.6g n %d\n", d.Name, v.Value, v.Unit, v.Q1, v.Q3, v.Min, v.Max, v.N)
		} else {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %14s\n", "sim_checksum", res.Checksum)
	fmt.Fprintf(w, "  attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of floats and strings always marshal
	}
	fmt.Fprintf(w, "detail: %s\n", detail)

	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv, len(res.Metrics))}
	for name, v := range res.Metrics {
		summary.Metrics[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// ---- all-workload mode ----

// ledger is the file -out writes and -compare reads.
type ledger struct {
	Schema     int          `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []*runResult `json:"runs"`
}

// runAll runs every workload in a child process of its own, so peak_rss_mb
// is per workload and one workload's heap never shapes another's GC: first
// untraced (the end-to-end numbers), then traced.
func runAll(common []string, out, spansPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	led := &ledger{Schema: 1, GoVersion: runtime.Version(), GOMAXPROCS: procs()}
	var spans []span
	code := 0
	child := func(w workloadDef, traced bool) {
		cargs := append(append([]string(nil), common...), "-workload", w.name, "-trace", "0")
		var spanFile string
		if traced {
			cargs[len(cargs)-1] = "1"
			if spansPath != "" {
				spanFile = filepath.Join(buildDir, "spans-"+w.name+".json")
				cargs = append(cargs, "-spans", spanFile)
			}
		}
		cmd := exec.Command(self, cargs...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, rest := splitDetail(buf.Bytes())
		os.Stdout.Write(rest)
		if res != nil {
			led.Runs = append(led.Runs, res)
		}
		if runErr != nil || res == nil {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %t) failed: %v\n", w.name, traced, runErr)
			code = 1
			return
		}
		if spanFile != "" {
			ws, err := readSpans(spanFile, len(spans))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				return
			}
			spans = append(spans, ws...)
			os.Remove(spanFile)
		}
	}
	for _, w := range workloads {
		child(w, false)
		child(w, true)
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(led, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// splitDetail pulls the "detail:" line out of a child's output and returns
// the result it carries with the human-readable rows before it.
func splitDetail(outp []byte) (*runResult, []byte) {
	var rest bytes.Buffer
	var res *runResult
	sc := bufio.NewScanner(bytes.NewReader(outp))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if js, ok := strings.CutPrefix(line, "detail: "); ok {
			r := &runResult{}
			if json.Unmarshal([]byte(js), r) == nil {
				res = r
			}
			break // what follows is the contract's summary line, a subset
		}
		rest.WriteString(line)
		rest.WriteByte('\n')
	}
	return res, rest.Bytes()
}

// readSpans loads one workload's span file, shifting ids by base so spans of
// several workloads can share one file.
func readSpans(path string, base int) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range spans {
		spans[i].ID += base
		if spans[i].Parent >= 0 {
			spans[i].Parent += base
		}
	}
	return spans, nil
}
