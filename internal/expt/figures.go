package expt

import (
	"fmt"

	"codelayout/internal/isa"
	"codelayout/internal/program"
	"codelayout/internal/stats"
)

// comboNames are the Figure 7 / Figure 15 optimization combinations in paper
// order: the original binary, then rows of core.Combos().
var comboNames = []string{"base", "porder", "chain", "chain+split", "chain+porder", "all"}

// comboNamesExt appends the combinations this reproduction measures next to
// the paper's six: the inter-procedural call-chaining pass and the
// per-transaction-kind program fusion pass.
var comboNamesExt = append(append([]string(nil), comboNames...), "ipchain", "fusion")

// baseAndAll measures the pair most tables compare: the original binary and
// the fully optimized layout.
func (s *Session) baseAndAll(cpus int) (base, opt *Measure, err error) {
	if base, err = s.Measure("base", cpus); err != nil {
		return nil, nil, err
	}
	opt, err = s.Measure("all", cpus)
	return base, opt, err
}

// ofPair adapts a table builder that reads nothing but that pair, measured at
// the session's processor count, to an Experiment's Run.
func ofPair(build func(base, opt *Measure) []*stats.Table) func(*Session) ([]*stats.Table, error) {
	return func(s *Session) ([]*stats.Table, error) {
		base, opt, err := s.baseAndAll(s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		return build(base, opt), nil
	}
}

func pctOf(opt, base uint64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(opt)/float64(base))
}

// execProfile is the unoptimized binary's cumulative execution profile under
// the session's training profile (Figure 3).
func (s *Session) execProfile() ([]stats.CumulativePoint, error) {
	prof, err := s.Profile()
	if err != nil {
		return nil, err
	}
	base := s.src.baseApp
	prog := s.src.appImg.Prog
	static := make([]int64, prog.NumBlocks())
	dyn := make([]uint64, prog.NumBlocks())
	for i := range prog.Blocks {
		b := program.BlockID(i)
		static[i] = int64(base.Occ(b)) * isa.WordBytes
		dyn[i] = prof.Count(b) * uint64(base.Occ(b))
	}
	return stats.CumulativeProfile(static, dyn), nil
}

// fig03 — execution profile of the unoptimized application binary.
func fig03(s *Session) ([]*stats.Table, error) {
	pts, err := s.execProfile()
	if err != nil {
		return nil, err
	}
	base := s.src.baseApp

	t := stats.NewTable("Figure 3: execution profile of the unoptimized binary",
		"coverage", "footprint (KB)")
	for _, frac := range []float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.0} {
		t.AddRow(stats.Pct(frac), float64(stats.CoverageAt(pts, frac))/1024)
	}
	t2 := stats.NewTable("Figure 3 (reference points)", "metric", "value")
	t2.AddRow("fraction captured by 50KB", stats.Pct(stats.FracAtBytes(pts, 50<<10)))
	t2.AddRow("fraction captured by 200KB", stats.Pct(stats.FracAtBytes(pts, 200<<10)))
	if len(pts) > 0 {
		t2.AddRow("total executed footprint (KB)", float64(pts[len(pts)-1].Bytes)/1024)
	}
	t2.AddRow("static binary size (MB)", float64(base.TotalBytes())/(1<<20))
	t2.Note(paperNote("fig03"))
	return []*stats.Table{t, t2}, nil
}

// fig04 — application icache misses across cache and line sizes.
func fig04(base, opt *Measure) []*stats.Table {
	var out []*stats.Table
	titles := [2]string{
		"Figure 4(a): application icache misses, baseline binary (direct-mapped)",
		"Figure 4(b): application icache misses, optimized binary (direct-mapped)",
	}
	for i, m := range [2]*Measure{base, opt} {
		t := stats.NewTable(titles[i], append([]string{"line\\size"}, sizeCols()...)...)
		for _, line := range LineSizes {
			row := []interface{}{fmt.Sprintf("%dB", line)}
			for _, size := range CacheSizesKB {
				row = append(row, m.AppDM[size][line].Misses)
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

func sizeCols() []string {
	cols := make([]string, len(CacheSizesKB))
	for i, s := range CacheSizesKB {
		cols[i] = fmt.Sprintf("%dKB", s)
	}
	return cols
}

// fig05 — relative misses of the optimized binary over the baseline.
func fig05(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 5: optimized/baseline application misses (%), direct-mapped",
		append([]string{"line\\size"}, sizeCols()...)...)
	for _, line := range LineSizes {
		row := []interface{}{fmt.Sprintf("%dB", line)}
		for _, size := range CacheSizesKB {
			row = append(row, pctOf(opt.AppDM[size][line].Misses, base.AppDM[size][line].Misses))
		}
		t.AddRow(row...)
	}
	t.Note(paperNote("fig05"))
	return []*stats.Table{t}
}

// fig06 — associativity impact at 128-byte lines.
func fig06(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 6: associativity impact (application misses, 128B lines)",
		"size", "base DM", "base 4-way", "opt DM", "opt 4-way")
	for _, size := range CacheSizesKB {
		t.AddRow(fmt.Sprintf("%dKB", size),
			base.AppDM[size][128].Misses, base.App4W[size].Misses,
			opt.AppDM[size][128].Misses, opt.App4W[size].Misses)
	}
	t.Note(paperNote("fig06"))
	return []*stats.Table{t}
}

// fig07 — impact of each optimization combination.
func fig07(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 7: application icache misses per optimization (128B lines, 4-way)",
		append([]string{"combo"}, sizeCols()...)...)
	if err := s.MeasureBatch(comboNamesExt, s.Opt.CPUs, 0); err != nil {
		return nil, err
	}
	for _, name := range comboNamesExt {
		m, err := s.Measure(name, s.Opt.CPUs)
		if err != nil {
			return nil, err
		}
		row := []interface{}{name}
		for _, size := range CacheSizesKB {
			row = append(row, m.App4W[size].Misses)
		}
		t.AddRow(row...)
	}
	t.Note(paperNote("fig07"))
	return []*stats.Table{t}, nil
}

// fig08 — sequentially executed instructions.
func fig08(base, opt *Measure) []*stats.Table {
	a := stats.NewTable("Figure 8(a): average sequentially executed instructions", "setup", "avg length")
	a.AddRow("dynamic basic block size", basicBlock(base))
	a.AddRow("base", base.Seq.Mean())
	a.AddRow("optimized", opt.Seq.Mean())
	a.Note(paperNote("fig08a"))

	b := stats.NewTable("Figure 8(b): sequence length distribution (% of sequences)",
		"length", "base", "optimized")
	for l := 1; l <= 33; l++ {
		b.AddRow(l, stats.Pct(base.Seq.Frac(l)), stats.Pct(opt.Seq.Frac(l)))
	}
	b.AddRow(">33",
		stats.Pct(base.Seq.Frac(34)),
		stats.Pct(opt.Seq.Frac(34)))
	b.Note(paperNote("fig08b"))
	return []*stats.Table{a, b}
}

// fig09 — unique words used before replacement.
func fig09(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 9: unique words used before replacement (128KB/128B/4-way, % of replacements)",
		"words", "base", "optimized")
	for w := 1; w <= 32; w++ {
		t.AddRow(w, stats.Pct(base.App4W[128].WordsUsed.Frac(w)), stats.Pct(opt.App4W[128].WordsUsed.Frac(w)))
	}
	t.Note(paperNote("fig09"))
	return []*stats.Table{t}
}

// fig10 — times an individual word is used before replacement.
func fig10(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 10: word reuse before replacement (128KB/128B/4-way, % of words loaded)",
		"uses", "base", "optimized")
	for n := 0; n <= 15; n++ {
		t.AddRow(n, stats.Pct(base.App4W[128].WordReuse.Frac(n)), stats.Pct(opt.App4W[128].WordReuse.Frac(n)))
	}
	t.Note(paperNote("fig10"))
	return []*stats.Table{t}
}

// fig11 — cache line lifetimes.
func fig11(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 11: cache line lifetimes (128KB/128B/4-way, % of replacements)",
		"log2(cache cycles)", "base", "optimized")
	bl, ol := base.App4W[128].Lifetime, opt.App4W[128].Lifetime
	for bkt := range max(len(bl.Counts), len(ol.Counts)) {
		bf, of := bl.Frac(bkt), ol.Frac(bkt)
		if bf == 0 && of == 0 {
			continue
		}
		t.AddRow(bkt, stats.Pct(bf), stats.Pct(of))
	}
	t.Note(paperNote("fig11"))
	return []*stats.Table{t}
}
