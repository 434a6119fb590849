package expt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"codelayout/internal/cache"
	"codelayout/internal/stats"
)

// Claim is one thing the paper says about one of its experiments, stated
// once: the words the experiment's table prints as its "paper:" note, the
// band the paper gives, and how to read our value off the session's
// memoized measurements — the same Measures the table reads.
//
// Kind says what the claim is about. An Input claim is a property of the
// base binary or the workload; an Effect claim is what a layout does, and
// Dir says which way the paper has it move the value: +1 up, -1 down.
// Value returns ours and, for an effect, unmoved: what ours would read had
// the layout changed nothing — the base binary's reading, 1 for a ratio of
// two readings (the two are level), 0 for a relative change.
//
// The paper's words become a Band one way: a range a-b is [a, b]; a number
// x, "~x" or "near x" is x ± 10 %; ">x" is [x, ∞); a bare direction
// ("drops", "raises", "beats") is the side of 1 it names, for a value that
// is a ratio to its unmoved reading.
//
// One rule judges ours against the band:
//   - held: Lo <= ours <= Hi;
//   - near: outside the band by at most a quarter of the nearer edge's
//     magnitude;
//   - missed: farther out — and always for an effect that does not move the
//     value in the paper's direction, however close it lands.
type Claim struct {
	// ID is the experiment's ID (fig08's two tables: fig08a, fig08b), a
	// slash and the claim's name.
	ID   string
	Kind ClaimKind
	// Says is the claim's part of its table's note, with the punctuation
	// that joins it to the part before; empty when the claim reads the
	// words of the claim before it at another point (another cache size or
	// platform). The note is "paper: " and its claims' Says in order.
	Says string
	Band Band
	// Unit renders a value: "%" a fraction in percent, "x" a ratio, any
	// other suffix the number as measured.
	Unit  string
	Dir   int
	Value reading
}

// A reading reads a claim's value off a session: ours and, for an effect,
// unmoved (Claim says which).
type reading func(*Session) (ours, unmoved float64, err error)

// ClaimKind separates what the paper measured going in from what its layouts
// did.
type ClaimKind string

const (
	Input  ClaimKind = "input"
	Effect ClaimKind = "effect"
)

// Band is the paper's value for a claim, inclusive; an open side is ±Inf.
type Band struct{ Lo, Hi float64 }

func between(lo, hi float64) Band { return Band{lo, hi} }
func about(x float64) Band        { return Band{min(0.9*x, 1.1*x), max(0.9*x, 1.1*x)} }
func atLeast(x float64) Band      { return Band{x, math.Inf(1)} }
func atMost(x float64) Band       { return Band{math.Inf(-1), x} }

// Verdict is a claim's standing in one session (Claim states the rule).
type Verdict string

const (
	Held   Verdict = "held"
	Near   Verdict = "near"
	Missed Verdict = "missed"
)

// A Score is one claim judged in one session.
type Score struct {
	Claim
	Ours, Unmoved float64
	Verdict       Verdict
}

// Agrees reports whether an effect moved the value the way the paper says;
// an input claim has no direction and agrees.
func (sc Score) Agrees() bool {
	return sc.Kind == Input || (sc.Ours-sc.Unmoved)*float64(sc.Dir) > 0
}

func (sc Score) judge() Verdict {
	lo, hi := sc.Band.Lo, sc.Band.Hi
	switch {
	case !sc.Agrees():
		return Missed
	case sc.Ours >= lo && sc.Ours <= hi:
		return Held
	case sc.Ours < lo && lo-sc.Ours <= math.Abs(lo)/4,
		sc.Ours > hi && sc.Ours-hi <= math.Abs(hi)/4:
		return Near
	}
	return Missed
}

// Scorecard judges every claim in the session, in registry order.
func (s *Session) Scorecard() ([]Score, error) {
	out := make([]Score, len(claims))
	for i, c := range claims {
		ours, unmoved, err := c.Value(s)
		if err != nil {
			return nil, fmt.Errorf("expt: claim %s: %w", c.ID, err)
		}
		out[i] = Score{Claim: c, Ours: ours, Unmoved: unmoved}
		out[i].Verdict = out[i].judge()
	}
	return out, nil
}

// Show renders a value of the claim in its unit.
func (c Claim) Show(v float64) string { return c.num(v) + c.Unit }

func (c Claim) num(v float64) string {
	if c.Unit == "%" {
		return fmt.Sprintf("%.1f", 100*v)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// Paper renders the claim's band.
func (c Claim) Paper() string {
	switch {
	case math.IsInf(c.Band.Hi, 1):
		return ">= " + c.Show(c.Band.Lo)
	case math.IsInf(c.Band.Lo, -1):
		return "<= " + c.Show(c.Band.Hi)
	}
	return c.num(c.Band.Lo) + " .. " + c.Show(c.Band.Hi)
}

// paperNote renders the note of table id: "paper: " and the words of the
// claims whose IDs start with id and a slash.
func paperNote(id string) string {
	var b strings.Builder
	b.WriteString("paper: ")
	for _, c := range claims {
		if strings.HasPrefix(c.ID, id+"/") {
			b.WriteString(c.Says)
		}
	}
	return b.String()
}

// claimsExp — the scorecard: every claim's band, our value and its verdict.
func claimsExp(s *Session) ([]*stats.Table, error) {
	scores, err := s.Scorecard()
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("How close to the paper: each claim against the paper's band",
		"claim", "kind", "paper", "ours", "verdict")
	count := map[ClaimKind]map[Verdict]int{Input: {}, Effect: {}}
	for _, sc := range scores {
		t.AddRow(sc.ID, string(sc.Kind), sc.Paper(), sc.Show(sc.Ours), string(sc.Verdict))
		count[sc.Kind][sc.Verdict]++
	}
	for _, k := range []ClaimKind{Input, Effect} {
		c := count[k]
		t.Notef("%s claims: %d held, %d near, %d missed", k, c[Held], c[Near], c[Missed])
	}
	return []*stats.Table{t}, nil
}

// A quantity is one number read off a measure.
type quantity func(*Measure) float64

func app4W(size int) quantity {
	return func(m *Measure) float64 { return float64(m.App4W[size].Misses) }
}
func comb4W(size int) quantity {
	return func(m *Measure) float64 { return float64(m.Comb4W[size].Misses) }
}
func appDM(size int) quantity {
	return func(m *Measure) float64 { return float64(m.AppDM[size][128].Misses) }
}

// read returns q under layout, measured at the session's processor count.
func (s *Session) read(layout string, q quantity) (float64, error) {
	m, err := s.Measure(layout, s.Opt.CPUs)
	if err != nil {
		return 0, err
	}
	return q(m), nil
}

// onBase reads an input claim off the base binary.
func onBase(q quantity) reading {
	return func(s *Session) (float64, float64, error) {
		v, err := s.read("base", q)
		return v, v, err
	}
}

// baseToAll reads an effect claim as q under "all", unmoved q on the base
// binary.
func baseToAll(q quantity) reading {
	return func(s *Session) (float64, float64, error) {
		b, err := s.read("base", q)
		if err != nil {
			return 0, 0, err
		}
		o, err := s.read("all", q)
		return o, b, err
	}
}

// over reads an effect claim as the ratio of q under layout to q under ref.
func over(layout, ref string, q quantity) reading {
	return func(s *Session) (float64, float64, error) {
		r, err := s.read(ref, q)
		if err != nil {
			return 0, 0, err
		}
		l, err := s.read(layout, q)
		return ratioOf(l, r), 1, err
	}
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// change1P reads an effect claim as the relative change of q from the base
// binary to "all" on one processor, as §5's hardware counters were read.
func change1P(q quantity) reading {
	return func(s *Session) (float64, float64, error) {
		base, opt, err := s.baseAndAll(1)
		if err != nil {
			return 0, 0, err
		}
		return ratioOf(q(opt), q(base)) - 1, 0, nil
	}
}

// onProfile reads an input claim off fig03's cumulative execution profile.
func onProfile(f func(pts []stats.CumulativePoint) float64) reading {
	return func(s *Session) (float64, float64, error) {
		pts, err := s.execProfile()
		if err != nil {
			return 0, 0, err
		}
		v := f(pts)
		return v, v, nil
	}
}

// speedupOf reads an effect claim as "all"'s speedup over the base binary
// at cpus processors, 0 meaning the session's count.
func speedupOf(plat platform, counts func(*Measure) cycleCounts, cpus int) reading {
	return func(s *Session) (float64, float64, error) {
		n := cpus
		if n == 0 {
			n = s.Opt.CPUs
		}
		v, err := s.speedup(plat, counts, n)
		return v, 1, err
	}
}

// relTime reads "all"'s relative execution time on plat, one processor.
func relTime(plat platform, counts func(*Measure) cycleCounts) reading {
	return func(s *Session) (float64, float64, error) {
		v, err := s.speedup(plat, counts, 1)
		return ratioOf(1, v), 1, err
	}
}

// layoutOverAssoc reads the optimized binary's direct-mapped misses over the
// base binary's 4-way misses at size: below 1, the layout removed more misses
// than associativity did.
func layoutOverAssoc(size int) reading {
	return func(s *Session) (float64, float64, error) {
		base, opt, err := s.baseAndAll(s.Opt.CPUs)
		if err != nil {
			return 0, 0, err
		}
		return ratioOf(appDM(size)(opt), app4W(size)(base)), 1, nil
	}
}

// basicBlock is the dynamic basic block size: application instructions per
// fetch run (Figure 8).
func basicBlock(m *Measure) float64 {
	return ratioOf(m.Seq.Sum, float64(m.AppRuns))
}

// lifetime is the mean cycles a replaced line lived (Figure 11).
func lifetime(m *Measure) float64 {
	l := m.App4W[128].Lifetime
	return ratioOf(l.Sum, float64(l.N))
}

// multiUse is the share of loaded words used at least twice (Figure 10).
func multiUse(m *Measure) float64 {
	r := m.App4W[128].WordReuse
	return 1 - r.Frac(0) - r.Frac(1)
}

// nearSeventeen is the share of sequences 15-19 instructions long (Figure 8).
func nearSeventeen(m *Measure) float64 {
	f := 0.0
	for l := 15; l <= 19; l++ {
		f += m.Seq.Frac(l)
	}
	return f
}

// victimShare is the share of owner's misses that land on lines victim
// holds (Figure 13).
func victimShare(owner, victim cache.Owner) quantity {
	return func(m *Measure) float64 {
		intf := m.Comb4W[128]
		return ratioOf(float64(intf.VictimBy[owner][victim]), float64(intf.MissBy[owner]))
	}
}

// claims is the paper's evaluation as data, in registry order.
var claims = []Claim{
	{ID: "fig03/captured-by-50KB", Kind: Input, Says: "50KB captures ~60%", Band: about(0.60), Unit: "%",
		Value: onProfile(func(pts []stats.CumulativePoint) float64 { return stats.FracAtBytes(pts, 50<<10) })},
	{ID: "fig03/needed-for-99", Kind: Input, Says: ", 99% needs ~200KB", Band: about(200), Unit: "KB",
		Value: onProfile(func(pts []stats.CumulativePoint) float64 { return float64(stats.CoverageAt(pts, 0.99)) / 1024 })},
	{ID: "fig03/executed-footprint", Kind: Input, Says: ", footprint ~260KB", Band: about(260), Unit: "KB",
		Value: onProfile(func(pts []stats.CumulativePoint) float64 {
			if len(pts) == 0 {
				return 0
			}
			return float64(pts[len(pts)-1].Bytes) / 1024
		})},
	{ID: "fig03/static-binary", Kind: Input, Says: ", binary 27MB", Band: about(27), Unit: "MB",
		Value: func(s *Session) (float64, float64, error) {
			v := float64(s.src.baseApp.TotalBytes()) / (1 << 20)
			return v, v, nil
		}},

	{ID: "fig05/app-dm-64KB", Kind: Effect, Says: "55-65% reduction (i.e. 35-45% relative) at 64-128KB with 128B lines",
		Band: between(0.35, 0.45), Unit: "%", Dir: -1, Value: over("all", "base", appDM(64))},
	{ID: "fig05/app-dm-128KB", Kind: Effect, Band: between(0.35, 0.45), Unit: "%", Dir: -1, Value: over("all", "base", appDM(128))},

	// Layout against associativity: the optimized binary on a direct-mapped
	// cache over the base binary on a 4-way one.
	{ID: "fig06/layout-beats-assoc-32KB", Kind: Effect, Says: "associativity gains are small next to layout gains at 32-128KB",
		Band: atMost(1), Unit: "x", Dir: -1, Value: layoutOverAssoc(32)},
	{ID: "fig06/layout-beats-assoc-64KB", Kind: Effect, Band: atMost(1), Unit: "x", Dir: -1, Value: layoutOverAssoc(64)},
	{ID: "fig06/layout-beats-assoc-128KB", Kind: Effect, Band: atMost(1), Unit: "x", Dir: -1, Value: layoutOverAssoc(128)},

	{ID: "fig07/porder-hurts", Kind: Effect, Says: "porder alone slightly hurts", Band: atLeast(1), Unit: "x", Dir: +1,
		Value: over("porder", "base", app4W(64))},
	{ID: "fig07/chain-largest-single", Kind: Effect, Says: "; chain is the largest single win", Band: atMost(1), Unit: "x", Dir: -1,
		Value: over("chain", "porder", app4W(64))},
	{ID: "fig07/all-best", Kind: Effect, Says: "; all is best", Band: atMost(1), Unit: "x", Dir: -1,
		Value: func(s *Session) (float64, float64, error) {
			best := math.Inf(1)
			for _, name := range comboNames[1:5] {
				v, err := s.read(name, app4W(64))
				if err != nil {
					return 0, 0, err
				}
				best = min(best, v)
			}
			all, err := s.read("all", app4W(64))
			return ratioOf(all, best), 1, err
		}},

	{ID: "fig08a/base-run", Kind: Input, Says: "base 7.3", Band: about(7.3), Unit: " instr",
		Value: onBase(func(m *Measure) float64 { return m.Seq.Mean() })},
	{ID: "fig08a/optimized-run", Kind: Effect, Says: ", optimized >10", Band: atLeast(10), Unit: " instr", Dir: +1,
		Value: baseToAll(func(m *Measure) float64 { return m.Seq.Mean() })},
	{ID: "fig08a/basic-block", Kind: Input, Says: ", basic block ~5", Band: about(5), Unit: " instr",
		Value: onBase(basicBlock)},

	{ID: "fig08b/one-instr-base", Kind: Input, Says: "optimized cuts 1-instruction sequences from 21% to 15%", Band: about(0.21), Unit: "%",
		Value: onBase(func(m *Measure) float64 { return m.Seq.Frac(1) })},
	{ID: "fig08b/one-instr-optimized", Kind: Effect, Band: about(0.15), Unit: "%", Dir: -1,
		Value: baseToAll(func(m *Measure) float64 { return m.Seq.Frac(1) })},
	{ID: "fig08b/spike-near-17", Kind: Effect, Says: " and spikes near 17", Band: atLeast(1), Unit: "x", Dir: +1,
		Value: over("all", "base", nearSeventeen)},

	{ID: "fig09/all-words-used", Kind: Effect, Says: "optimized uses all 32 words in >60% of replaced lines", Band: atLeast(0.60), Unit: "%", Dir: +1,
		Value: baseToAll(func(m *Measure) float64 { return m.App4W[128].WordsUsed.Frac(32) })},

	{ID: "fig10/base-unused", Kind: Input, Says: "base leaves >half of fetched words unused", Band: atLeast(0.5), Unit: "%",
		Value: onBase(func(m *Measure) float64 { return m.App4W[128].WordReuse.Frac(0) })},
	{ID: "fig10/multi-use", Kind: Effect, Says: "; optimized raises multi-use words", Band: atLeast(1), Unit: "x", Dir: +1,
		Value: over("all", "base", multiUse)},

	{ID: "fig11/lifetime", Kind: Effect, Says: "average lifetime improves by over 2x", Band: atLeast(2), Unit: "x", Dir: +1,
		Value: over("all", "base", lifetime)},

	{ID: "fig12/combined-64KB", Kind: Effect, Says: "45-60% combined reduction", Band: between(0.40, 0.55), Unit: "%", Dir: -1,
		Value: over("all", "base", comb4W(64))},
	{ID: "fig12/combined-128KB", Kind: Effect, Band: between(0.40, 0.55), Unit: "%", Dir: -1, Value: over("all", "base", comb4W(128))},
	{ID: "fig12/app-only-64KB", Kind: Effect, Says: " vs 55-65% app-only at 64-128KB", Band: between(0.35, 0.45), Unit: "%", Dir: -1,
		Value: over("all", "base", app4W(64))},
	{ID: "fig12/app-only-128KB", Kind: Effect, Band: between(0.35, 0.45), Unit: "%", Dir: -1, Value: over("all", "base", app4W(128))},

	{ID: "fig13/app-self", Kind: Input, Says: "application misses are mostly self-interference", Band: atLeast(0.5), Unit: "%",
		Value: onBase(victimShare(cache.OwnerApp, cache.OwnerApp))},
	{ID: "fig13/kernel-by-app", Kind: Input, Says: "; kernel misses are mostly app-inflicted", Band: atLeast(0.5), Unit: "%",
		Value: onBase(victimShare(cache.OwnerKernel, cache.OwnerApp))},

	{ID: "fig14/itlb", Kind: Effect, Says: "all three drop", Band: atMost(1), Unit: "x", Dir: -1,
		Value: over("all", "base", func(m *Measure) float64 { return float64(m.ITLB64) })},
	{ID: "fig14/l2-instr", Kind: Effect, Band: atMost(1), Unit: "x", Dir: -1,
		Value: over("all", "base", func(m *Measure) float64 { return float64(m.Mem.L2Misses[0]) })},
	{ID: "fig14/l2-data", Kind: Effect, Says: "; L2 data misses drop because packed code displaces fewer data lines", Band: atMost(1), Unit: "x", Dir: -1,
		Value: over("all", "base", func(m *Measure) float64 { return float64(m.Mem.L2Misses[1]) })},

	{ID: "fig15/all-21264", Kind: Effect, Says: "'all' lands near 75% on both platforms (1.33x), consistent across generations",
		Band: about(0.75), Unit: "%", Dir: -1, Value: relTime(alpha21264, counts21264)},
	{ID: "fig15/all-21164", Kind: Effect, Band: about(0.75), Unit: "%", Dir: -1, Value: relTime(alpha21164, counts21164)},

	{ID: "footprint/base", Kind: Input, Says: "500KB -> 315KB", Band: about(500), Unit: "KB",
		Value: onBase(func(m *Measure) float64 { return float64(m.Foot.Bytes) / 1024 })},
	{ID: "footprint/packed", Kind: Effect, Says: " (37% smaller)", Band: about(0.63), Unit: "%", Dir: -1,
		Value: over("all", "base", func(m *Measure) float64 { return float64(m.Foot.Bytes) })},
	{ID: "footprint/base-unused", Kind: Input, Says: "; unused fetched instructions 46% -> 21%", Band: about(0.46), Unit: "%",
		Value: onBase(func(m *Measure) float64 { return m.App4W[128].UnusedFetchedFrac() })},
	{ID: "footprint/unused", Kind: Effect, Band: about(0.21), Unit: "%", Dir: -1,
		Value: baseToAll(func(m *Measure) float64 { return m.App4W[128].UnusedFetchedFrac() })},

	{ID: "hw21164/icache", Kind: Effect, Says: "-28% icache", Band: about(-0.28), Unit: "%", Dir: -1,
		Value: change1P(func(m *Measure) float64 { return float64(m.HW21164.Misses) })},
	{ID: "hw21164/itlb", Kind: Effect, Says: ", -43% iTLB", Band: about(-0.43), Unit: "%", Dir: -1,
		Value: change1P(func(m *Measure) float64 { return float64(m.ITLB48) })},
	{ID: "hw21164/board", Kind: Effect, Says: ", -39% board cache", Band: about(-0.39), Unit: "%", Dir: -1,
		Value: change1P(func(m *Measure) float64 { return float64(m.Board.L2Misses[0] + m.Board.L2Misses[1]) })},

	{ID: "speedup/21264-1p", Kind: Effect, Says: "1.33x on 21264 and 21164 single-processor", Band: about(1.33), Unit: "x", Dir: +1,
		Value: speedupOf(alpha21264, counts21264, 1)},
	{ID: "speedup/21164-1p", Kind: Effect, Band: about(1.33), Unit: "x", Dir: +1, Value: speedupOf(alpha21164, counts21164, 1)},
	{ID: "speedup/simos", Kind: Effect, Says: ", 1.37x in SimOS", Band: about(1.37), Unit: "x", Dir: +1,
		Value: speedupOf(alpha21364Sim, counts21264, 0)},
	{ID: "speedup/21164-mp", Kind: Effect, Says: ", 1.25x on 4 processors", Band: about(1.25), Unit: "x", Dir: +1,
		Value: speedupOf(alpha21164, counts21164, 0)},

	{ID: "kernopt/added-speedup", Kind: Effect, Says: "kernel layout optimization adds only ~3.5% (kernel is a small share of time)",
		Band: about(0.035), Unit: "%", Dir: +1,
		Value: func(s *Session) (float64, float64, error) {
			plain, kopt, err := s.kernMeasures()
			if err != nil {
				return 0, 0, err
			}
			cyc, cycK := alpha21364Sim.cycles(counts21264(plain)), alpha21364Sim.cycles(counts21264(kopt))
			return ratioOf(float64(cyc), float64(cycK)) - 1, 0, nil
		}},

	// Fine-grain splitting ("all") over hot/cold splitting, both ordered.
	{ID: "abl-split/fine-beats-hotcold-64KB", Kind: Effect, Says: "ordering helps only at fine granularity — it separates hot from cold segments",
		Band: atMost(1), Unit: "x", Dir: -1, Value: over("all", "hotcold", app4W(64))},
	{ID: "abl-split/fine-beats-hotcold-128KB", Kind: Effect, Band: atMost(1), Unit: "x", Dir: -1, Value: over("all", "hotcold", app4W(128))},

	{ID: "abl-cfa/hot-exceeds-area", Kind: Input, Says: "the hot-trace footprint is too large for the reserved area", Band: atLeast(1), Unit: "x",
		Value: func(s *Session) (float64, float64, error) {
			rep := s.Report("cfa")
			if rep == nil {
				_, err := s.Layout("cfa")
				return 0, 0, err
			}
			v := ratioOf(float64(rep.HotWords), float64(rep.CFAReservedWords))
			return v, v, nil
		}},
	{ID: "abl-cfa/no-gain", Kind: Effect, Says: "; CFA yields no gains on OLTP", Band: atLeast(1), Unit: "x", Dir: +1,
		Value: over("cfa", "all", appDM(64))},
}
