// layoutlab regenerates the paper's tables and figures, plus the
// cross-workload/cross-shard extension tables. The run description comes
// from the flag surface the four commands share (expt.BindFlags): the
// -quick/-full preset with -seed/-txns/-cpus/-shards overrides, the workload
// lookups and the mix knobs are resolved once, before any image builds.
//
//	layoutlab -list
//	layoutlab -run fig05            # one experiment, quick configuration
//	layoutlab -run all -full        # everything at paper scale
//	layoutlab -run fig04 -csv out/  # also dump CSV files
//	layoutlab -table robustness -matrix tpcb,ordere,ycsb -shardlist 1,4
//	layoutlab -table shardsweep -shards 1,2,4,8,16,32,64
//	layoutlab -table shardsweep -shards 1,4,16 -fastpath=false -gc off
//	layoutlab -table latency -matrix tpcb,ycsb -shardlist 1,2
//	layoutlab -table latency -matrix tpcb,ordere -layout fusion -stall 40
//	layoutlab -table blend -ratios 0,0.5,1
//	layoutlab -table datalayout                      # record layout: interleaved vs grouped
//	layoutlab -table datalayout -workload ycsb -zipf 0.9 -readpct 0
//	layoutlab -table search -population 16 -generations 8 -objective instr
//	layoutlab -table search -matrix tpcb,ordere,ycsb -search-seed 7
//	layoutlab -run fig04 -profile-store /var/cache/pgo   # second run skips training
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"codelayout/internal/expt"
	"codelayout/internal/search"
	"codelayout/internal/stats"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment id to run, or 'all'")
		list   = flag.Bool("list", false, "list experiments and exit")
		csvDir = flag.String("csv", "", "directory to write CSV copies of each table")

		population  = flag.Int("population", 0, "search: genomes per generation (default 16)")
		generations = flag.Int("generations", 0, "search: maximum generations (default 8)")
		objective   = flag.String("objective", "", "search: fitness metric to minimize (instr, miss, p50, p99; default instr)")
		searchSeed  = flag.Int64("search-seed", 0, "search: evolution rng seed (default 1); same seed reproduces the search bit for bit")
		workers     = flag.Int("workers", 0, "search: measurement worker-pool bound per evaluation wave (default GOMAXPROCS; never changes results)")
		memostats   = flag.Bool("memostats", false, "print the session memo counters (measure/layout/train hits, misses, entries) after the run")
	)
	f := expt.BindFlags(flag.CommandLine, expt.Layoutlab)
	flag.Parse()
	if err := f.Resolve(); err != nil {
		fatal(err)
	}

	if *list {
		for _, line := range expt.Summary() {
			fmt.Println(line)
		}
		return
	}

	if f.Table == "search" {
		res, err := searchTable(f, search.Config{
			Population:  *population,
			Generations: *generations,
			Seed:        *searchSeed,
			Workers:     *workers,
		}, *objective)
		if err != nil {
			fatal(err)
		}
		emit([]*stats.Table{res.Table}, *csvDir)
		if *memostats {
			printMemoStats(res.Memo)
		}
		reportStore(f, nil)
		return
	}
	if f.Table != "" {
		tables, err := extensionTables(f)
		if err != nil {
			fatal(err)
		}
		emit(tables, *csvDir)
		reportStore(f, nil)
		return
	}

	s, err := f.NewSession()
	if err != nil {
		fatal(err)
	}
	ids := []string{*run}
	if *run == "all" {
		ids = expt.IDs()
	}
	for _, id := range ids {
		e, err := expt.Get(id)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n### %s — %s (%s)\n\n", e.ID, e.Title, e.Paper)
		tables, err := s.Run(id)
		if err != nil {
			fatal(err)
		}
		emit(tables, *csvDir)
	}
	if *memostats {
		printMemoStats(s.MemoStats())
	}
	reportStore(f, s.Source())
}

// searchTable runs the evolutionary pipeline search over the -matrix
// workloads (the first is the training workload) and prints one progress
// line per generation.
func searchTable(f *expt.Flags, cfg search.Config, objective string) (*search.Result, error) {
	obj, err := search.ParseObjective(objective)
	if err != nil {
		return nil, err
	}
	cfg.Objective = obj
	for _, wl := range f.Matrix {
		cfg.Workloads = append(cfg.Workloads, search.WorkloadWeight{Workload: wl, Weight: 1})
	}
	cfg.Progress = func(g search.GenerationStat) {
		fmt.Printf("search gen %d: best %.4f (%s) unique=%d executed=%d\n",
			g.Gen, g.Best.Fitness, g.Best.Spec, g.Unique, g.Executed)
	}
	return search.Run(f.Opt, cfg)
}

// printMemoStats prints the grep-able memo-counter debug line: every measure
// miss is a simulation this invocation executed, every hit one the memo (or
// its in-flight dedup) absorbed.
func printMemoStats(ms expt.MemoStats) {
	fmt.Printf("memo: measure hits=%d misses=%d entries=%d | layout hits=%d misses=%d entries=%d | train hits=%d misses=%d entries=%d\n",
		ms.Measure.Hits, ms.Measure.Misses, ms.Measure.Entries,
		ms.Layout.Hits, ms.Layout.Misses, ms.Layout.Entries,
		ms.Train.Hits, ms.Train.Misses, ms.Train.Entries)
}

// reportStore prints the grep-able profile-store summary: every store miss is
// a training run this invocation had to execute, every hit one it skipped.
func reportStore(f *expt.Flags, src *expt.ProfileSource) {
	store := f.Opt.ProfileStore
	if store == nil {
		return
	}
	st := store.Stats()
	line := fmt.Sprintf("profile store: hits=%d misses=%d evictions=%d trained=%d",
		st.Hits, st.Misses, st.Evictions, st.Misses)
	if src != nil {
		if e := src.LastStoreHit(); e != nil {
			line += fmt.Sprintf(" last-hit-age=%s", e.Age(time.Now()).Round(time.Second))
		}
	}
	fmt.Println(line)
}

// extensionTables runs the cross-workload/cross-shard table -table names
// (Resolve has already rejected an unknown one) from the parsed flags.
func extensionTables(f *expt.Flags) ([]*stats.Table, error) {
	matrix := expt.MatrixSpec{Workloads: f.Matrix, Shards: f.ShardList, Layout: f.Layout}
	switch f.Table {
	case "datalayout":
		t, err := expt.DataLayoutTable(f.Opt, f.DataLayout)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	case "blend":
		res, err := expt.BlendTable(f.Opt, f.Blend)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{res.Table}, nil
	case "robustness":
		res, err := expt.Robustness(f.Opt, matrix)
		if err != nil {
			return nil, err
		}
		return res.Tables, nil
	case "shardsweep":
		t, err := expt.ShardSweepTable(f.Opt, f.Sweep)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	case "latency":
		return expt.LatencyTables(f.Opt, matrix)
	}
	return nil, fmt.Errorf("no extension table %q", f.Table)
}

func emit(tables []*stats.Table, csvDir string) {
	for _, t := range tables {
		t.Render(os.Stdout)
		fmt.Println()
		if csvDir != "" {
			if err := writeCSV(csvDir, t); err != nil {
				fatal(err)
			}
		}
	}
}

func writeCSV(dir string, t *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, t.Title)
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	t.CSV(f)
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layoutlab:", err)
	os.Exit(1)
}
