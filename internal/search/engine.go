package search

import (
	"fmt"
	"math/rand"
	"sort"

	"codelayout/internal/core"
	"codelayout/internal/expt"
	"codelayout/internal/stats"
	"codelayout/internal/workload"
)

// Objective selects the fitness metric a genome is scored on. All
// objectives are minimized.
type Objective string

const (
	// ObjectiveInstrPerTxn scores busy (app+kernel) instructions plus modeled
	// fetch-stall instruction-times per committed transaction — the
	// time-per-transaction (throughput) view. Raw fetched-instruction counts
	// are nearly layout-invariant; the stall term is where locality pays.
	ObjectiveInstrPerTxn Objective = "instr"
	// ObjectiveMissRatio scores the 64KB/128B/4-way application L1I miss
	// ratio — the paper's primary locality metric.
	ObjectiveMissRatio Objective = "miss"
	// ObjectiveP50 and ObjectiveP99 score modeled per-transaction latency
	// percentiles on the fetch-stall clock.
	ObjectiveP50 Objective = "p50"
	ObjectiveP99 Objective = "p99"
)

// DefaultStallPenalty is the fetch-stall penalty (instruction-times per L1I
// miss) Run installs when a stall-sensitive objective (instr, p50, p99) is
// searched with Options.FetchStallPenaltyInstr zero — without a penalty,
// layout locality cannot move time at all.
const DefaultStallPenalty = 40

// ParseObjective resolves an -objective flag value.
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case ObjectiveInstrPerTxn, ObjectiveMissRatio, ObjectiveP50, ObjectiveP99:
		return Objective(s), nil
	case "":
		return ObjectiveInstrPerTxn, nil
	}
	return "", fmt.Errorf("search: unknown objective %q (have instr, miss, p50, p99)", s)
}

// score extracts the objective's raw value from one measurement.
func (o Objective) score(m *expt.Measure) float64 {
	switch o {
	case ObjectiveMissRatio:
		return m.App4W[64].MissRate()
	case ObjectiveP50:
		return float64(m.Res.Latency.P50)
	case ObjectiveP99:
		return float64(m.Res.Latency.P99)
	default: // ObjectiveInstrPerTxn
		if m.Res.Committed == 0 {
			return 0
		}
		return float64(m.Res.BusyInstrs+m.Res.FetchStallInstr) / float64(m.Res.Committed)
	}
}

// reads is the sink set score needs: only the miss ratio comes off a
// simulated cache, the other objectives off the machine's own result.
func (o Objective) reads() expt.SinkSet {
	if o == ObjectiveMissRatio {
		return expt.SinkApp4W(64)
	}
	return expt.NoSinks
}

// Label is the objective's table-column label.
func (o Objective) Label() string {
	switch o {
	case ObjectiveMissRatio:
		return "L1I miss ratio"
	case ObjectiveP50:
		return "p50 (instr)"
	case ObjectiveP99:
		return "p99 (instr)"
	default:
		return "instr+stall/txn"
	}
}

// WorkloadWeight is one evaluation workload and its weight in the fitness
// sum. The first workload of Config.Workloads is also the training workload:
// every genome's layout is built from its profile and transplanted onto the
// others, so the weighted fitness measures transfer, not just fit.
type WorkloadWeight struct {
	Workload workload.Workload
	Weight   float64
}

// The breeding constants: elite genomes survive each generation unchanged
// (never more than the population holds), selection is a tournament of
// tournamentSize, and a child is bred from two parents before mutation —
// rather than mutated from one — with probability crossoverP.
const (
	elite          = 2
	tournamentSize = 3
	crossoverP     = 0.6
)

// Config parameterizes a search run. Zero fields take the documented
// defaults, so Config{} is a small but sane smoke-scale search.
type Config struct {
	// Population is the genome count per generation (default 16).
	Population int
	// Generations is the maximum generation count (default 8).
	Generations int
	// Seed drives every stochastic choice — population init, selection,
	// crossover, mutation (default 1). Two runs with equal Config and
	// session options produce bit-identical trajectories regardless of
	// Workers.
	Seed int64
	// Objective is the minimized fitness metric (default instr/txn).
	Objective Objective
	// Workloads are the weighted evaluation mixes; the first is the
	// training workload. Empty defaults to the session options' workload
	// at weight 1.
	Workloads []WorkloadWeight
	// Plateau stops the search after this many consecutive generations
	// without fitness improvement; 0 disables early stop.
	Plateau int
	// Workers bounds the measurement pool each generation's evaluation
	// shares across all workloads (expt.MeasureAll); <= 0 keys off
	// GOMAXPROCS. Worker count never changes results, only wall time.
	Workers int
	// Progress, when non-nil, is called once per evaluated generation.
	Progress func(GenerationStat)
}

func (c Config) withDefaults() Config {
	if c.Population <= 0 {
		c.Population = 16
	}
	if c.Generations <= 0 {
		c.Generations = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Objective == "" {
		c.Objective = ObjectiveInstrPerTxn
	}
	return c
}

// Scored is one evaluated pipeline: its spec, weighted fitness (lower is
// better; 1.0 is the base layout by construction), and the raw per-workload
// objective values behind it.
type Scored struct {
	Spec        string
	Fitness     float64
	PerWorkload map[string]float64
}

// GenerationStat is one generation's progress snapshot.
type GenerationStat struct {
	// Gen is the 1-based generation index.
	Gen int
	// GenBest is the best genome of this generation's population.
	GenBest Scored
	// Best is the best genome seen so far (the hall-of-fame head).
	Best Scored
	// Requested is the cumulative genome evaluations requested
	// (population × generations so far, duplicates included).
	Requested int
	// Unique is the cumulative count of distinct specs evaluated.
	Unique int
	// Executed is the cumulative count of measurement simulations actually
	// run across all evaluation sessions (memo misses; everything else was
	// deduplicated).
	Executed uint64
}

// Result is a finished search.
type Result struct {
	// Winner is the best pipeline found (the hall-of-fame head).
	Winner Scored
	// Baselines are the hand-built reference combos (base, ipchain, fusion)
	// scored on the same fitness; base is 1.0 by construction.
	Baselines []Scored
	// HallOfFame holds the best distinct specs seen, fitness-ascending.
	HallOfFame []Scored
	// Trajectory is the per-generation progress (the README's
	// generations-vs-best-fitness table is a rendering of it).
	Trajectory []GenerationStat
	// Requested / Unique / Executed: requested genome evaluations
	// (population × generations run), distinct specs measured, and
	// simulations actually executed across sessions. Executed < Requested
	// is the dedup guarantee the acceptance test pins.
	Requested int
	Unique    int
	Executed  uint64
	// Memo aggregates the sessions' memo counters (measurement counters
	// summed; layout/train counters from the shared source).
	Memo expt.MemoStats
	// StoppedEarly reports a plateau stop before Generations ran.
	StoppedEarly bool
	// Objective echoes the scored objective.
	Objective Objective
	// Table compares the evolved winner against the hand-built combos per
	// workload on the objective.
	Table *stats.Table
}

// seedNames are the rows of core's combo table the initial population
// starts from — the paper's strongest combo plus this repo's two extensions,
// then the splitting/CFA variants — and baselineNames the rows the evolved
// winner is compared against.
var (
	seedNames     = []string{"all", "ipchain", "fusion", "hotcold", "cfa"}
	baselineNames = []string{"base", "ipchain", "fusion"}
)

// handBuiltSeeds resolves seedNames to genomes. Seeding them (with elitism)
// guarantees the winner is never worse than the best hand-built combo on the
// search objective.
func handBuiltSeeds() ([]Genome, error) {
	out := make([]Genome, 0, len(seedNames))
	for _, name := range seedNames {
		pl, err := core.ComboPipeline(name)
		if err != nil {
			return nil, fmt.Errorf("search: hand-built seed: %w", err)
		}
		g, err := ParseGenome(pl.String())
		if err != nil {
			return nil, fmt.Errorf("search: hand-built seed %q: %w", name, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// evaluator owns the per-workload sessions sharing one profile source and
// the fitness cache.
type evaluator struct {
	obj      Objective
	cases    []WorkloadWeight
	sessions []*expt.Session
	cpus     int
	workers  int

	baseScore map[string]float64 // workload name → base layout's objective
	cache     map[string]Scored  // spec → evaluated fitness
}

// measureWave measures every spec on every session as one parallel memoized
// batch and returns each spec's Scored. Duplicate specs cost nothing — the
// session memo and its in-flight dedup collapse them. Once scored, the wave's
// measurements and layouts are released: ev.cache answers every later
// request for a spec, so the search holds one wave's simulations and layouts
// at a time.
func (ev *evaluator) measureWave(specs []string) ([]Scored, error) {
	if err := expt.MeasureAll(ev.sessions, specs, ev.cpus, ev.workers); err != nil {
		return nil, err
	}
	out := make([]Scored, 0, len(specs))
	for _, spec := range specs {
		sc := Scored{Spec: spec, PerWorkload: make(map[string]float64, len(ev.cases))}
		var sum, wsum float64
		for i, s := range ev.sessions {
			m, err := s.Measure(spec, ev.cpus) // memo hit: the wave ran it
			if err != nil {
				return nil, err
			}
			name := ev.cases[i].Workload.Name()
			raw := ev.obj.score(m)
			sc.PerWorkload[name] = raw
			base := ev.baseScore[name]
			if base > 0 {
				sum += ev.cases[i].Weight * raw / base
				wsum += ev.cases[i].Weight
			}
		}
		if wsum > 0 {
			sc.Fitness = sum / wsum
		}
		out = append(out, sc)
	}
	expt.ReleaseAll(ev.sessions, specs, ev.cpus)
	return out, nil
}

// executed sums the sessions' executed measurement counts (memo misses).
func (ev *evaluator) executed() uint64 {
	var n uint64
	for _, s := range ev.sessions {
		n += s.MemoStats().Measure.Misses
	}
	return n
}

// memoStats aggregates the sessions' memo counters: measurement counters
// summed per session, layout/train counters taken once from the shared
// source.
func (ev *evaluator) memoStats() expt.MemoStats {
	agg := ev.sessions[0].MemoStats()
	for _, s := range ev.sessions[1:] {
		ms := s.MemoStats()
		agg.Measure.Hits += ms.Measure.Hits
		agg.Measure.Misses += ms.Measure.Misses
		agg.Measure.Entries += ms.Measure.Entries
	}
	return agg
}

// Run executes the evolutionary search under the given session options.
// The options' train config (seed, transaction counts) shapes the single
// shared training run all genomes build from; cfg.Workloads[0] (or the
// options' workload) is the training mix.
func Run(o expt.Options, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workloads) == 0 {
		wl := o.Workload
		if wl == nil {
			return nil, fmt.Errorf("search: no workload configured")
		}
		cfg.Workloads = []WorkloadWeight{{Workload: wl, Weight: 1}}
	}
	for i := range cfg.Workloads {
		if cfg.Workloads[i].Weight <= 0 {
			cfg.Workloads[i].Weight = 1
		}
	}
	if cfg.Objective != ObjectiveMissRatio && o.FetchStallPenaltyInstr == 0 {
		o.FetchStallPenaltyInstr = DefaultStallPenalty
	}

	// One union image; every genome trains on the first workload's profile
	// and transplants onto the rest.
	o.Workload = cfg.Workloads[0].Workload
	o.Train.Workload = cfg.Workloads[0].Workload
	extra := make([]workload.Workload, 0, len(cfg.Workloads)-1)
	for _, ww := range cfg.Workloads[1:] {
		extra = append(extra, ww.Workload)
	}
	src, err := expt.NewProfileSource(o, extra...)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{
		obj: cfg.Objective, cases: cfg.Workloads, cpus: o.CPUs, workers: cfg.Workers,
		baseScore: make(map[string]float64, len(cfg.Workloads)),
		cache:     make(map[string]Scored),
	}
	for _, ww := range cfg.Workloads {
		eo := o
		eo.Workload = ww.Workload
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			return nil, err
		}
		ev.sessions = append(ev.sessions, s.Reading(cfg.Objective.reads()))
	}

	// Score the hand-built reference combos first: "base" anchors the
	// fitness normalization, ipchain/fusion are the bars to beat.
	if err := expt.MeasureAll(ev.sessions, baselineNames, ev.cpus, ev.workers); err != nil {
		return nil, err
	}
	for i, s := range ev.sessions {
		m, err := s.Measure("base", ev.cpus)
		if err != nil {
			return nil, err
		}
		ev.baseScore[cfg.Workloads[i].Workload.Name()] = cfg.Objective.score(m)
	}
	baselines := make([]Scored, 0, len(baselineNames))
	for _, name := range baselineNames {
		sc, err := ev.measureWave([]string{name}) // all memo hits
		if err != nil {
			return nil, err
		}
		sc[0].Spec = name
		baselines = append(baselines, sc[0])
	}

	// Initial population: hand-built seeds, then random genomes.
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds, err := handBuiltSeeds()
	if err != nil {
		return nil, err
	}
	pop := make([]Genome, 0, cfg.Population)
	for _, g := range seeds {
		if len(pop) == cfg.Population {
			break
		}
		pop = append(pop, g)
	}
	for len(pop) < cfg.Population {
		pop = append(pop, RandomGenome(rng))
	}

	res := &Result{Baselines: baselines, Objective: cfg.Objective}
	var best Scored
	bestSet := false
	plateau := 0

	for gen := 1; gen <= cfg.Generations; gen++ {
		// Deduplicate the population's specs (first-seen order), keeping
		// each spec's genome to breed from, and measure the unseen ones on
		// every workload as one parallel batch.
		specs := make([]string, 0, len(pop))
		bySpec := make(map[string]Genome, len(pop))
		var fresh []string
		for _, g := range pop {
			spec := g.Spec()
			if _, ok := bySpec[spec]; !ok {
				bySpec[spec] = g
				specs = append(specs, spec)
				if _, ok := ev.cache[spec]; !ok {
					fresh = append(fresh, spec)
				}
			}
		}
		if len(fresh) > 0 {
			scored, err := ev.measureWave(fresh)
			if err != nil {
				return nil, err
			}
			for _, sc := range scored {
				ev.cache[sc.Spec] = sc
			}
		}

		// Rank the distinct specs, fitness ascending, spec as tie-break so
		// ordering never depends on map or goroutine scheduling.
		ranked := make([]Scored, 0, len(specs))
		for _, spec := range specs {
			ranked = append(ranked, ev.cache[spec])
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].Fitness != ranked[j].Fitness {
				return ranked[i].Fitness < ranked[j].Fitness
			}
			return ranked[i].Spec < ranked[j].Spec
		})
		genBest := ranked[0]
		improved := !bestSet || genBest.Fitness < best.Fitness
		if improved {
			best = genBest
			bestSet = true
			plateau = 0
		} else {
			plateau++
		}

		res.Requested += len(pop)
		stat := GenerationStat{
			Gen: gen, GenBest: genBest, Best: best,
			Requested: res.Requested, Unique: len(ev.cache), Executed: ev.executed(),
		}
		res.Trajectory = append(res.Trajectory, stat)
		if cfg.Progress != nil {
			cfg.Progress(stat)
		}
		if cfg.Plateau > 0 && plateau >= cfg.Plateau {
			res.StoppedEarly = true
			break
		}
		if gen == cfg.Generations {
			break
		}

		// Breed the next generation: elite genomes survive unchanged (and
		// re-evaluate for free off the cache), the rest are tournament-bred.
		next := make([]Genome, 0, len(pop))
		for i := 0; i < elite && i < len(ranked); i++ {
			next = append(next, bySpec[ranked[i].Spec])
		}
		tournament := func() Genome {
			winner := -1
			for k := 0; k < tournamentSize; k++ {
				c := rng.Intn(len(ranked))
				if winner == -1 || c < winner {
					winner = c
				}
			}
			return bySpec[ranked[winner].Spec]
		}
		for len(next) < cfg.Population {
			var child Genome
			if rng.Float64() < crossoverP {
				child = Crossover(tournament(), tournament(), rng)
				if rng.Float64() < 0.5 {
					child = Mutate(child, rng)
				}
			} else {
				child = Mutate(tournament(), rng)
			}
			next = append(next, child)
		}
		pop = next
	}

	res.Winner = best
	res.Unique = len(ev.cache)
	res.Executed = ev.executed()
	res.Memo = ev.memoStats()
	// Every spec the cache holds was ranked in the generation that measured
	// it: the cache is the hall.
	res.HallOfFame = make([]Scored, 0, len(ev.cache))
	for _, sc := range ev.cache {
		res.HallOfFame = append(res.HallOfFame, sc)
	}
	sort.Slice(res.HallOfFame, func(i, j int) bool {
		if res.HallOfFame[i].Fitness != res.HallOfFame[j].Fitness {
			return res.HallOfFame[i].Fitness < res.HallOfFame[j].Fitness
		}
		return res.HallOfFame[i].Spec < res.HallOfFame[j].Spec
	})
	if len(res.HallOfFame) > 10 {
		res.HallOfFame = res.HallOfFame[:10]
	}
	res.Table = transferTable(cfg, res)
	return res, nil
}

// transferTable renders the winner against the hand-built combos per
// workload: the raw objective value and the winner's delta against each row
// (negative = winner better).
func transferTable(cfg Config, res *Result) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Evolved pipeline vs hand-built combos (%s, trained on %s)",
			res.Objective.Label(), cfg.Workloads[0].Workload.Name()),
		"workload", "layout", res.Objective.Label(), "Δ winner")
	rows := append(append([]Scored(nil), res.Baselines...), Scored{
		Spec: "winner", Fitness: res.Winner.Fitness, PerWorkload: res.Winner.PerWorkload,
	})
	for _, ww := range cfg.Workloads {
		name := ww.Workload.Name()
		for _, sc := range rows {
			raw, ok := sc.PerWorkload[name]
			if !ok {
				continue
			}
			delta := "-"
			if win, ok := res.Winner.PerWorkload[name]; ok && raw > 0 && sc.Spec != "winner" {
				delta = fmt.Sprintf("%+.1f%%", 100*(win-raw)/raw)
			}
			t.AddRow(name, sc.Spec, formatObjective(res.Objective, raw), delta)
		}
	}
	t.Notef("winner spec: %s (fitness %.4f, base = 1.0)", res.Winner.Spec, res.Winner.Fitness)
	t.Notef("evaluations: %d requested, %d unique specs, %d simulations executed (memoized dedup)",
		res.Requested, res.Unique, res.Executed)
	return t
}

func formatObjective(obj Objective, v float64) string {
	if obj == ObjectiveMissRatio {
		return fmt.Sprintf("%.4f", v)
	}
	return fmt.Sprintf("%.0f", v)
}
