package expt

import (
	"fmt"

	"codelayout/internal/cache"
	"codelayout/internal/stats"
)

// The cycle model converts instruction and miss counts into non-idle
// execution cycles for the paper's hardware platforms. The paper's metric is
// non-idle cycles (elapsed time comparisons are meaningless once the
// optimized workload becomes more I/O bound), and its result is *relative*
// execution time per optimization combination (Figure 15), which this model
// reproduces; absolute cycle counts are not meaningful.

// platform describes one machine's memory-system cost structure, all in CPU
// cycles.
type platform struct {
	name string
	// l1iMiss and l1dMiss are charged per L1 instruction- and data-cache miss
	// that hits the next level; l2Miss is the additional charge when the
	// unified cache misses to memory, commMiss the additional charge for a
	// dirty remote (2–3 hop) transfer, itlbMiss the software refill cost.
	l1iMiss, l1dMiss, l2Miss, commMiss, itlbMiss uint64
}

// The three platforms of the paper's evaluation.
var (
	// alpha21264 models the AlphaServer DS20 (600 MHz, 64KB 2-way L1s,
	// board cache).
	alpha21264 = platform{name: "21264 (64KB, 2-way)",
		l1iMiss: 14, l1dMiss: 14, l2Miss: 90, commMiss: 110, itlbMiss: 40}
	// alpha21164 models the AlphaServer 4100 (300 MHz, 8KB direct-mapped
	// L1s, 2MB board cache).
	alpha21164 = platform{name: "21164 (8KB, 1-way)",
		l1iMiss: 8, l1dMiss: 8, l2Miss: 50, commMiss: 60, itlbMiss: 30}
	// alpha21364Sim models the SimOS configuration: 1 GHz single-issue, 64KB
	// 2-way L1s, 1.5MB 6-way L2, 12ns L2 hit, 80ns local memory.
	alpha21364Sim = platform{name: "21364-sim (1GHz)",
		l1iMiss: 12, l1dMiss: 12, l2Miss: 80, commMiss: 175, itlbMiss: 40}
)

// cycleCounts aggregates one run's events.
type cycleCounts struct {
	instructions uint64
	l1iMisses    uint64
	l1dMisses    uint64
	l2Misses     uint64 // unified cache misses (instruction + data)
	commMisses   uint64 // remote dirty transfers
	itlbMisses   uint64
}

// cycles returns the modeled non-idle cycle count: single-issue base CPI of
// 1 plus stall components.
func (p platform) cycles(c cycleCounts) uint64 {
	return c.instructions +
		c.l1iMisses*p.l1iMiss +
		c.l1dMisses*p.l1dMiss +
		c.l2Misses*p.l2Miss +
		c.commMisses*p.commMiss +
		c.itlbMisses*p.itlbMiss
}

// relative returns cycles(c) / cycles(base) — the Figure 15 y-axis (relative
// execution time in non-idle cycles, as a fraction); 0 for an empty base.
func (p platform) relative(c, base cycleCounts) float64 {
	b := p.cycles(base)
	if b == 0 {
		return 0
	}
	return float64(p.cycles(c)) / float64(b)
}

// fig12 — combined application + operating system instruction streams.
func fig12(base, opt *Measure) []*stats.Table {
	var out []*stats.Table
	titles := [2]string{
		"Figure 12(a): combined streams, baseline binary (128B, 4-way)",
		"Figure 12(b): combined streams, optimized binary (128B, 4-way)",
	}
	for i, m := range [2]*Measure{base, opt} {
		t := stats.NewTable(titles[i], append([]string{"stream"}, sizeCols()...)...)
		for _, r := range []struct {
			label  string
			bySize map[int]*cache.Stats
		}{
			{"all (combined)", m.Comb4W},
			{"application (isolated)", m.App4W},
			{"kernel (isolated)", m.Kern4W},
		} {
			row := []interface{}{r.label}
			for _, size := range CacheSizesKB {
				row = append(row, r.bySize[size].Misses)
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	cmp := stats.NewTable("Figure 12 summary: combined-miss reduction", "size", "combined opt/base", "isolated app opt/base")
	for _, size := range CacheSizesKB {
		cmp.AddRow(fmt.Sprintf("%dKB", size),
			pctOf(opt.Comb4W[size].Misses, base.Comb4W[size].Misses),
			pctOf(opt.App4W[size].Misses, base.App4W[size].Misses))
	}
	cmp.Note("paper: 45-60% combined reduction vs 55-65% app-only at 64-128KB")
	out = append(out, cmp)
	return out
}

// fig13 — interference between application and kernel streams.
func fig13(base, opt *Measure) []*stats.Table {
	var out []*stats.Table
	titles := [2]string{
		"Figure 13(a): interference, baseline binary (128KB/128B/4-way)",
		"Figure 13(b): interference, optimized binary (128KB/128B/4-way)",
	}
	for i, m := range [2]*Measure{base, opt} {
		t := stats.NewTable(titles[i],
			"missing process", "on kernel-owned line", "on application-owned line", "cold", "total")
		appRow := m.Intf.VictimBy[cache.OwnerApp]
		kernRow := m.Intf.VictimBy[cache.OwnerKernel]
		t.AddRow("kernel", kernRow[cache.OwnerKernel], kernRow[cache.OwnerApp], kernRow[cache.OwnerNone], m.Intf.MissBy[cache.OwnerKernel])
		t.AddRow("application", appRow[cache.OwnerKernel], appRow[cache.OwnerApp], appRow[cache.OwnerNone], m.Intf.MissBy[cache.OwnerApp])
		t.AddRow("both",
			kernRow[cache.OwnerKernel]+appRow[cache.OwnerKernel],
			kernRow[cache.OwnerApp]+appRow[cache.OwnerApp],
			kernRow[cache.OwnerNone]+appRow[cache.OwnerNone],
			m.Intf.Misses)
		out = append(out, t)
	}
	out[0].Note("paper: application misses are mostly self-interference; kernel misses are mostly app-inflicted")
	return out
}

// fig14 — iTLB and L2 behavior.
func fig14(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Figure 14: iTLB and L2 misses (64-entry iTLB, 1.5MB 6-way L2)",
		"structure", "base", "optimized", "opt/base")
	t.AddRow("iTLB", base.ITLB64, opt.ITLB64, pctOf(opt.ITLB64, base.ITLB64))
	t.AddRow("L2 instruction misses", base.Mem.L2Misses[0], opt.Mem.L2Misses[0],
		pctOf(opt.Mem.L2Misses[0], base.Mem.L2Misses[0]))
	t.AddRow("L2 data misses", base.Mem.L2Misses[1], opt.Mem.L2Misses[1],
		pctOf(opt.Mem.L2Misses[1], base.Mem.L2Misses[1]))
	t.Note("paper: all three drop; L2 data misses drop because packed code displaces fewer data lines")
	return []*stats.Table{t}
}

// counts21264 assembles the cycle-model inputs of the 21264 platform from a
// measure. The SimOS 21364 model reads the same ones: its L1I is the same
// 64KB 2-way cache, over the same memory system and 64-entry iTLB.
func counts21264(m *Measure) cycleCounts {
	return cycleCounts{
		instructions: m.Res.BusyInstrs,
		l1iMisses:    m.HW21264.Misses,
		l1dMisses:    m.Mem.L1DMisses,
		l2Misses:     m.Mem.L2Misses[0] + m.Mem.L2Misses[1],
		commMisses:   m.Mem.CommRead + m.Mem.CommWrite,
		itlbMisses:   m.ITLB64,
	}
}

func counts21164(m *Measure) cycleCounts {
	return cycleCounts{
		instructions: m.Res.BusyInstrs,
		l1iMisses:    m.HW21164.Misses,
		l1dMisses:    m.Board.L1DMisses,
		l2Misses:     m.Board.L2Misses[0] + m.Board.L2Misses[1],
		commMisses:   m.Board.CommRead + m.Board.CommWrite,
		itlbMisses:   m.ITLB48,
	}
}

// fig15 — relative execution time per optimization combination on the two
// hardware platforms (single-processor runs, as in the paper).
func fig15(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 15: relative execution time (non-idle cycles, %, 1 processor)",
		"combo", alpha21264.name, alpha21164.name)
	base, err := s.Measure("base", 1)
	if err != nil {
		return nil, err
	}
	b264, b164 := counts21264(base), counts21164(base)
	if err := s.MeasureBatch(comboNamesExt, 1, 0); err != nil {
		return nil, err
	}
	for _, name := range comboNamesExt {
		m, err := s.Measure(name, 1)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", 100*alpha21264.relative(counts21264(m), b264)),
			fmt.Sprintf("%.1f", 100*alpha21164.relative(counts21164(m), b164)))
	}
	t.Note("paper: 'all' lands near 75% on both platforms (1.33x), consistent across generations")
	return []*stats.Table{t}, nil
}

// footprint — the Section 4.1 in-text packing results.
func footprintExp(base, opt *Measure) []*stats.Table {
	t := stats.NewTable("Text §4.1: code packing", "metric", "base", "optimized")
	t.AddRow("footprint in 128B lines (KB)", float64(base.Foot.Bytes())/1024, float64(opt.Foot.Bytes())/1024)
	t.AddRow("unique pages touched", base.Foot.Pages(), opt.Foot.Pages())
	t.AddRow("unused fetched instructions", stats.Pct(base.Word.UnusedFetchedFrac()), stats.Pct(opt.Word.UnusedFetchedFrac()))
	t.Note("paper: 500KB -> 315KB (37% smaller); unused fetched instructions 46% -> 21%")
	return []*stats.Table{t}
}

// hw21164 — the Section 5 in-text 21164 hardware-counter results.
func hw21164Exp(s *Session) ([]*stats.Table, error) {
	base, opt, err := s.baseAndAll(1)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Text §5: 21164 hardware counters (1 processor)",
		"structure", "base", "optimized", "reduction")
	red := func(o, b uint64) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*(1-float64(o)/float64(b)))
	}
	t.AddRow("icache misses (8KB direct)", base.HW21164.Misses, opt.HW21164.Misses,
		red(opt.HW21164.Misses, base.HW21164.Misses))
	t.AddRow("iTLB misses (48-entry)", base.ITLB48, opt.ITLB48, red(opt.ITLB48, base.ITLB48))
	bBoard := base.Board.L2Misses[0] + base.Board.L2Misses[1]
	oBoard := opt.Board.L2Misses[0] + opt.Board.L2Misses[1]
	t.AddRow("board cache misses (2MB direct)", bBoard, oBoard, red(oBoard, bBoard))
	t.Note("paper: -28% icache, -43% iTLB, -39% board cache")
	return []*stats.Table{t}, nil
}

// speedup — overall execution-time improvements (§5 in-text numbers).
func speedupExp(s *Session) ([]*stats.Table, error) {
	t := stats.NewTable("Text §5: overall speedup of the fully optimized binary",
		"platform", "speedup (x)")
	row := func(label string, plat platform, counts func(*Measure) cycleCounts, cpus int) error {
		base, opt, err := s.baseAndAll(cpus)
		if err != nil {
			return err
		}
		rel := plat.relative(counts(opt), counts(base))
		t.AddRow(label, fmt.Sprintf("%.2f", 1/rel))
		return nil
	}
	if err := row("21264, 1 processor", alpha21264, counts21264, 1); err != nil {
		return nil, err
	}
	if err := row("21164, 1 processor", alpha21164, counts21164, 1); err != nil {
		return nil, err
	}
	if err := row(fmt.Sprintf("21364-sim, %d processors", s.Opt.CPUs), alpha21364Sim, counts21264, s.Opt.CPUs); err != nil {
		return nil, err
	}
	if err := row(fmt.Sprintf("21164, %d processors", s.Opt.CPUs), alpha21164, counts21164, s.Opt.CPUs); err != nil {
		return nil, err
	}
	t.Note("paper: 1.33x on 21264 and 21164 single-processor, 1.37x in SimOS, 1.25x on 4 processors")
	return []*stats.Table{t}, nil
}

// kernopt — optimizing the kernel's layout too (§5: small gains).
func kernoptExp(s *Session) ([]*stats.Table, error) {
	plain, err := s.MeasureKern("all", "kbase", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	kopt, err := s.MeasureKern("all", "kopt", s.Opt.CPUs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Text §5: adding kernel layout optimization (app already optimized)",
		"metric", "app-opt only", "app+kernel opt")
	for _, size := range []int{64, 128} {
		t.AddRow(fmt.Sprintf("combined misses %dKB", size),
			plain.Comb4W[size].Misses, kopt.Comb4W[size].Misses)
	}
	cyc := alpha21364Sim.cycles(counts21264(plain))
	cycK := alpha21364Sim.cycles(counts21264(kopt))
	t.AddRow("cycles (21364-sim)", cyc, cycK)
	if cycK < cyc {
		t.AddRow("additional speedup", "-", fmt.Sprintf("%.1f%%", 100*(float64(cyc)/float64(cycK)-1)))
	} else {
		t.AddRow("additional speedup", "-", fmt.Sprintf("%.1f%%", -100*(float64(cycK)/float64(cyc)-1)))
	}
	t.Note("paper: kernel layout optimization adds only ~3.5% (kernel is a small share of time)")
	return []*stats.Table{t}, nil
}
