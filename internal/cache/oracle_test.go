package cache_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/cache"
	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
)

// refCache is the reference the simulator is checked against: a map from set
// to the list of its resident lines, least recently used first, walked one
// fetched word at a time. It shares no code or arithmetic with ICache.
type refCache struct {
	cfg   cache.Config
	sets  map[uint64][]*refLine
	clock uint64
	st    *cache.Stats
}

type refLine struct {
	line   uint64
	owner  cache.Owner
	filled uint64
	uses   []int // per word, since the fill
}

func newRefCache(cfg cache.Config) *refCache {
	return &refCache{cfg: cfg, sets: make(map[uint64][]*refLine), st: cache.NewStats(cfg)}
}

func (c *refCache) Fetch(r trace.FetchRun) {
	var cur *refLine
	for w := uint64(0); w < uint64(r.Words); w++ {
		addr := r.Addr + w*isa.WordBytes
		if line := addr / uint64(c.cfg.LineBytes); cur == nil || cur.line != line {
			cur = c.touch(line, r.Kernel)
		}
		cur.uses[addr%uint64(c.cfg.LineBytes)/isa.WordBytes]++
	}
}

func (c *refCache) touch(line uint64, kernel bool) *refLine {
	c.clock++
	c.st.Accesses++
	key := line % uint64(c.cfg.SizeBytes/c.cfg.LineBytes/c.cfg.Assoc)
	set := c.sets[key]
	for i, l := range set {
		if l.line == line { // hit: move to the most recent end
			c.sets[key] = append(append(set[:i:i], set[i+1:]...), l)
			return l
		}
	}
	who, victim := cache.OwnerApp, cache.OwnerNone
	if kernel {
		who = cache.OwnerKernel
	}
	if len(set) == c.cfg.Assoc {
		victim = set[0].owner
		c.retire(set[0])
		set = set[1:]
	}
	c.st.Misses++
	c.st.Fills++
	c.st.MissBy[who]++
	c.st.VictimBy[who][victim]++
	l := &refLine{line: line, owner: who, filled: c.clock, uses: make([]int, c.cfg.LineBytes/isa.WordBytes)}
	if c.cfg.WordStats {
		c.st.FetchedWords += uint64(len(l.uses))
	}
	c.sets[key] = append(set, l)
	return l
}

func (c *refCache) retire(l *refLine) {
	if !c.cfg.WordStats {
		return
	}
	used := 0
	for _, n := range l.uses {
		c.st.WordReuse.Add(min(n, 255)) // the simulator's counters saturate
		if n > 0 {
			used++
		}
	}
	c.st.WordsUsed.Add(used)
	c.st.UsedWordSlots += uint64(used)
	c.st.Lifetime.Add(c.clock - l.filled)
}

func (c *refCache) finalize() *cache.Stats {
	for _, set := range c.sets {
		for _, l := range set {
			c.retire(l)
		}
	}
	return c.st
}

// hitsAndVictims is the part of the statistics word tracking must not move.
func hitsAndVictims(s *cache.Stats) [4]any {
	return [4]any{s.Accesses, s.Misses, s.MissBy, s.VictimBy}
}

// checkAgainstOracle replays runs through ICache and the reference, with
// word tracking off and on, and requires every statistic to agree — and the
// hits and victims to be the same with tracking on as off.
func checkAgainstOracle(t *testing.T, cfg cache.Config, runs []trace.FetchRun) {
	t.Helper()
	var plain [4]any
	for _, words := range []bool{false, true} {
		cfg.WordStats = words
		ic, ref := cache.New(cfg), newRefCache(cfg)
		for _, r := range runs {
			ic.Fetch(r)
			ref.Fetch(r)
		}
		ic.Finalize()
		got, want := ic.Stats(), ref.finalize()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s words=%t: simulator and reference disagree over %d runs:\n got %+v\nwant %+v", cfg, words, len(runs), got, want)
		}
		if got.Misses == 0 || got.Misses == got.Accesses {
			t.Errorf("%s: %d misses of %d accesses; the trace does not exercise replacement", cfg, got.Misses, got.Accesses)
		}
		if !words {
			plain = hitsAndVictims(got)
		} else if hitsAndVictims(got) != plain {
			t.Errorf("%s: word tracking changed a hit or a victim: %v vs %v", cfg, hitsAndVictims(got), plain)
		}
	}
}

// randomRuns draws a looping, branching fetch stream over span bytes: mostly
// fall-through runs, some jumps back to recently used targets, a tenth of it
// kernel text.
func randomRuns(rng *rand.Rand, n int, span uint64) []trace.FetchRun {
	runs := make([]trace.FetchRun, 0, n)
	targets := []uint64{0}
	next := uint64(0)
	for len(runs) < n {
		switch p := rng.Intn(10); {
		case p < 3:
			next = targets[rng.Intn(len(targets))]
		case p < 4:
			next = uint64(rng.Int63n(int64(span/isa.WordBytes))) * isa.WordBytes
			targets = append(targets, next)
		}
		r := trace.FetchRun{Addr: next, Words: int32(1 + rng.Intn(40)), Kernel: rng.Intn(10) == 0}
		runs = append(runs, r)
		next = r.End()
	}
	return runs
}

// TestICacheMatchesReferenceOnRandomRuns checks the simulator against the
// reference over small caches of every associativity and line size the
// battery uses, on random streams four times the cache.
func TestICacheMatchesReferenceOnRandomRuns(t *testing.T) {
	for seed, assoc := range []int{1, 2, 4} {
		for _, line := range []int{16, 32, 64, 128, 256} {
			cfg := cache.Config{SizeBytes: 4 << 10, LineBytes: line, Assoc: assoc}
			t.Run(strings.ReplaceAll(cfg.String(), "/", "-"), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*seed + line)))
				checkAgainstOracle(t, cfg, randomRuns(rng, 20_000, 4*uint64(cfg.SizeBytes)))
			})
		}
	}
}

// TestICacheMatchesReferenceOnMachineRuns records the fetch runs of a real
// (tiny) TPC-B run and checks the battery's own cache shapes against the
// reference on them. The word-tracking half is what lets the battery
// simulate Word and App4W[128] (application stream) and Intf and Comb4W[128]
// (combined stream) once each.
func TestICacheMatchesReferenceOnMachineRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := expt.QuickOptions()
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
	o.Transactions, o.WarmupTxns, o.Train.Txns = 30, 10, 100
	o.CPUs, o.ProcsPerCPU = 1, 6
	o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
	s, err := expt.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.MachineConfig("base", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	var all, app recorder
	cfg.Sinks = []trace.Sink{&all, trace.AppOnly(&app)}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(app) == 0 || len(app) == len(all) {
		t.Fatalf("recorded %d runs, %d of them application", len(all), len(app))
	}
	for _, c := range []struct {
		stream string
		runs   []trace.FetchRun
		cfg    cache.Config
	}{
		{"app", app, cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}},
		{"app", app, cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}},
		{"app", app, cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4}},
		{"combined", all, cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4}},
	} {
		name := c.stream + "-" + strings.ReplaceAll(c.cfg.String(), "/", "-")
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, c.cfg, c.runs) })
	}
}

type recorder []trace.FetchRun

func (r *recorder) Fetch(run trace.FetchRun) { *r = append(*r, run) }
