// icachesim replays a recorded trace (from oltpbench -trace) through
// instruction-cache configurations and prints the miss table, like the
// paper's trace-driven cache studies.
//
//	icachesim -trace run.trace -sizes 32,64,128,256,512 -lines 16,32,64,128,256
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"codelayout/internal/cache"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file")
		sizesStr  = flag.String("sizes", "32,64,128,256,512", "cache sizes (KB)")
		linesStr  = flag.String("lines", "128", "line sizes (bytes)")
		assoc     = flag.Int("assoc", 1, "associativity")
		appOnly   = flag.Bool("app-only", false, "filter out kernel references")
		kernOnly  = flag.Bool("kernel-only", false, "keep only kernel references")
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("need -trace"))
	}
	sizes, err := parseInts(*sizesStr)
	if err != nil {
		fatal(err)
	}
	lines, err := parseInts(*linesStr)
	if err != nil {
		fatal(err)
	}

	g := &grid{cfgs: make([][]cache.Config, len(lines))}
	for i, l := range lines {
		for _, s := range sizes {
			g.cfgs[i] = append(g.cfgs[i], cache.Config{SizeBytes: s << 10, LineBytes: l, Assoc: *assoc})
		}
	}
	if _, err := g.families(); err != nil {
		fatal(err)
	}
	var sink trace.Sink = g
	if *appOnly {
		sink = trace.AppOnly(sink)
	}
	if *kernOnly {
		sink = trace.KernelOnly(sink)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	if err := r.Replay(sink, nil); err != nil {
		fatal(err)
	}

	cols := []string{"line\\size"}
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("%dKB", s))
	}
	t := stats.NewTable(fmt.Sprintf("icache misses (%d-way)", *assoc), cols...)
	for i, l := range lines {
		row := []interface{}{fmt.Sprintf("%dB", l)}
		for j := range sizes {
			row = append(row, g.misses(i, j))
		}
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
}

// grid is the size × line sweep: one cache.Family per line size, walking
// that line's sizes, for each CPU that appears in the trace.
type grid struct {
	cfgs [][]cache.Config // per line size, one member per cache size
	cpus [trace.MaxCPUs][]*cache.Family
}

// families builds one CPU's families, or reports why the lists do not
// describe caches.
func (g *grid) families() ([]*cache.Family, error) {
	fams := make([]*cache.Family, len(g.cfgs))
	for i, cfgs := range g.cfgs {
		f, err := cache.NewFamily(cfgs...)
		if err != nil {
			return nil, err
		}
		fams[i] = f
	}
	return fams, nil
}

// Fetch implements trace.Sink.
func (g *grid) Fetch(r trace.FetchRun) {
	if g.cpus[r.CPU] == nil {
		fams, err := g.families()
		if err != nil {
			panic(err) // main built one set before replaying
		}
		g.cpus[r.CPU] = fams
	}
	for _, f := range g.cpus[r.CPU] {
		f.Fetch(r)
	}
}

// misses sums the misses of one cache of the grid over the CPUs.
func (g *grid) misses(line, size int) uint64 {
	var n uint64
	for _, fams := range g.cpus {
		if fams != nil {
			n += fams[line].Stats()[size].Misses
		}
	}
	return n
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icachesim:", err)
	os.Exit(1)
}
