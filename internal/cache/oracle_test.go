package cache_test

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
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
	who := cache.OwnerApp
	if r.Kernel {
		who = cache.OwnerKernel
	}
	var cur *refLine
	for w := uint64(0); w < uint64(r.Words); w++ {
		addr := r.Addr + w*isa.WordBytes
		if line := addr / uint64(c.cfg.LineBytes); cur == nil || cur.line != line {
			cur, _, _ = c.touch(line, who)
		}
		cur.uses[addr%uint64(c.cfg.LineBytes)/isa.WordBytes]++
	}
}

func (c *refCache) key(line uint64) uint64 {
	return line % uint64(c.cfg.SizeBytes/c.cfg.LineBytes/c.cfg.Assoc)
}

// touch accesses line for who and returns it, whether it hit, and on a miss
// the owner of the line it displaced (OwnerNone if the set had room).
func (c *refCache) touch(line uint64, who cache.Owner) (l *refLine, hit bool, victim cache.Owner) {
	c.clock++
	c.st.Accesses++
	key := c.key(line)
	set := c.sets[key]
	for i, l := range set {
		if l.line == line { // hit: move to the most recent end
			c.sets[key] = append(append(set[:i:i], set[i+1:]...), l)
			return l, true, cache.OwnerNone
		}
	}
	victim = cache.OwnerNone
	if len(set) == c.cfg.Assoc {
		victim = set[0].owner
		c.retire(set[0])
		set = set[1:]
	}
	c.st.Misses++
	c.st.Fills++
	c.st.MissBy[who]++
	c.st.VictimBy[who][victim]++
	l = &refLine{line: line, owner: who, filled: c.clock, uses: make([]int, c.cfg.LineBytes/isa.WordBytes)}
	if c.cfg.WordStats {
		c.st.FetchedWords += uint64(len(l.uses))
	}
	c.sets[key] = append(set, l)
	return l, false, victim
}

// invalidate drops line if it is resident, retiring it, and reports whether
// it was.
func (c *refCache) invalidate(line uint64) bool {
	key := c.key(line)
	for i, l := range c.sets[key] {
		if l.line == line {
			c.retire(l)
			c.sets[key] = slices.Delete(c.sets[key], i, i+1)
			return true
		}
	}
	return false
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
// reference on them. The word-tracking half is what lets the battery's
// App4W[128] (application stream) track words for Figures 9–11, and its
// Comb4W[128] (combined stream) attribute interference, as plain members of
// their families.
func TestICacheMatchesReferenceOnMachineRuns(t *testing.T) {
	all, app := machineRuns(t)
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

// accessOp is one step of a line-at-a-time stream: an access for owner, or
// an invalidation.
type accessOp struct {
	line       uint64
	owner      cache.Owner
	invalidate bool
}

// checkAccessAgainstOracle drives Access and Invalidate and the reference
// with ops and requires every return value to agree: hit or miss, the owner
// of the line a miss displaced (OwnerNone for an empty frame), and whether an
// invalidation found the line; then every statistic. A third cache takes each
// access as a one-line FetchWords run, and must hit and displace exactly where
// Access does. It returns how many ops hit, displaced a line and invalidated
// one.
func checkAccessAgainstOracle(t testing.TB, cfg cache.Config, ops []accessOp) (hits, victims, invalidated int) {
	t.Helper()
	ic, ref, fetched := cache.New(cfg), newRefCache(cfg), cache.New(cfg)
	for i, op := range ops {
		if op.invalidate {
			got, want := ic.Invalidate(op.line), ref.invalidate(op.line)
			if got != want {
				t.Fatalf("%s op %d: Invalidate(%d) = %t, reference %t", cfg, i, op.line, got, want)
			}
			fetched.Invalidate(op.line)
			if got {
				invalidated++
			}
			continue
		}
		hit, victim := ic.Access(op.line, op.owner)
		_, rhit, rvictim := ref.touch(op.line, op.owner)
		if hit != rhit || victim != rvictim {
			t.Fatalf("%s op %d: Access(%d, %s) = (%t, %s), reference (%t, %s)", cfg, i, op.line, op.owner, hit, victim, rhit, rvictim)
		}
		fetched.FetchWords(op.line*uint64(cfg.LineBytes), int32(cfg.LineBytes/isa.WordBytes), op.owner == cache.OwnerKernel)
		if hit {
			hits++
		} else if victim != cache.OwnerNone {
			victims++
		}
	}
	ic.Finalize()
	if got, want := ic.Stats(), ref.finalize(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Access and the reference disagree over %d ops:\n got %+v\nwant %+v", cfg, len(ops), got, want)
	}
	if got, want := hitsAndVictims(ic.Stats()), hitsAndVictims(fetched.Stats()); got != want {
		t.Errorf("%s: Access and one-line FetchWords runs disagree: %v vs %v", cfg, got, want)
	}
	return hits, victims, invalidated
}

// TestAccessMatchesReference holds the memory system's way of driving a
// cache — one line per access, coherence invalidations between — to the
// reference, over the shapes it uses (direct-mapped, 2-way, 6-way) and a
// 4-way one, one op in eight an invalidation.
func TestAccessMatchesReference(t *testing.T) {
	for _, cfg := range []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 1},
		{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 2},
		{SizeBytes: 3 << 10, LineBytes: 64, Assoc: 6},
		{SizeBytes: 4 << 10, LineBytes: 128, Assoc: 4},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.SizeBytes + cfg.Assoc)))
		span := int64(4 * cfg.SizeBytes / cfg.LineBytes)
		ops := make([]accessOp, 50_000)
		for i := range ops {
			ops[i] = accessOp{uint64(rng.Int63n(span)), cache.Owner(rng.Intn(2)), rng.Intn(8) == 0}
		}
		if hits, victims, invalidated := checkAccessAgainstOracle(t, cfg, ops); hits == 0 || victims == 0 || invalidated == 0 {
			t.Errorf("%s: %d hits, %d victims, %d invalidations; the stream does not exercise every path", cfg, hits, victims, invalidated)
		}
	}
}

// FuzzAccess turns bytes into a geometry (any power-of-two set count and line
// size, one to eight ways, words tracked or not) and a stream of accesses and
// invalidations, and requires Access and Invalidate to agree with the
// reference step by step. It also resets a second cache part way through the
// stream, at a sixteenth of it that the same header byte names, and holds it
// to checkResetAt.
func FuzzAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0})
	f.Add([]byte{0x36, 0x85, 1, 0, 9, 1, 17, 0, 1, 2, 25, 1, 1, 0})
	// One 2-way set: A, B, invalidate A, C fills A's emptied frame, so a
	// later D displaces B.
	f.Add([]byte{0x04, 0x01, 0, 0, 1, 0, 0, 2, 2, 0, 3, 1, 1, 0})
	// The same set with words tracked, reset halfway: after A, B (kernel)
	// and A's invalidation, then C, B and D (kernel) from empty.
	f.Add([]byte{0x04, 0xc1, 0, 0, 1, 1, 0, 2, 2, 0, 1, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		line := 4 << (int(data[0]&0x0f) % 7) // 4 B (one word) to 256 B
		sets := 1 << (int(data[0]>>4) % 8)   // 1 to 128 sets
		assoc := 1 + int(data[1]&7)
		cfg := cache.Config{SizeBytes: sets * line * assoc, LineBytes: line, Assoc: assoc, WordStats: data[1]&0x80 != 0}
		sixteenths := int(data[1]>>3) & 15
		// Two bytes an op: a line number below 1024, the owner, and whether
		// it is an invalidation.
		var ops []accessOp
		for data = data[2:]; len(data) >= 2; data = data[2:] {
			ops = append(ops, accessOp{
				line:       uint64(data[0]) | uint64(data[1]>>6)<<8,
				owner:      cache.Owner(data[1] & 1),
				invalidate: data[1]&2 != 0,
			})
		}
		checkAccessAgainstOracle(t, cfg, ops)
		checkResetAt(t, len(ops)*sixteenths/16, len(ops), func() *cache.ICache { return cache.New(cfg) },
			(*cache.ICache).Reset, func(c *cache.ICache, i int) {
				if op := ops[i]; op.invalidate {
					c.Invalidate(op.line)
				} else {
					c.Access(op.line, op.owner)
				}
			}, (*cache.ICache).Finalize)
	})
}

// checkResetAt feeds a simulator steps 0..cut-1 of an n-step stream and
// resets it, after which it must equal a new simulator; then it feeds both
// the rest of the stream and finishes them, after which they must still be
// equal — every field, unexported ones included: nothing of what came before
// a Reset shows after it. mk builds a new simulator, feed takes step i.
func checkResetAt[S any](t *testing.T, cut, n int, mk func() S, reset func(S), feed func(s S, i int), finish func(S)) {
	t.Helper()
	used, fresh := mk(), mk()
	for i := range cut {
		feed(used, i)
	}
	reset(used)
	if !reflect.DeepEqual(used, fresh) {
		t.Fatalf("reset after %d of %d steps: not equal to a new simulator", cut, n)
	}
	for i := cut; i < n; i++ {
		feed(used, i)
		feed(fresh, i)
	}
	finish(used)
	finish(fresh)
	if !reflect.DeepEqual(used, fresh) {
		t.Fatalf("reset after %d of %d steps: the rest of the stream reads differently than on a new simulator", cut, n)
	}
}

// machineRuns records the fetch runs of a real (tiny) TPC-B run, once for
// all the tests that replay them: the combined stream and its application
// part.
func machineRuns(t *testing.T) (all, app []trace.FetchRun) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	recordOnce.Do(func() {
		o := expt.QuickOptions()
		o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 4, AccountsPerBranch: 150})
		o.Transactions, o.WarmupTxns, o.Train.Txns = 30, 10, 100
		o.CPUs, o.ProcsPerCPU = 1, 6
		o.LibScale, o.ColdWords, o.KernColdWords = 0.3, 400_000, 100_000
		s, err := expt.NewSession(o)
		if err != nil {
			recordErr = err
			return
		}
		cfg, err := s.MachineConfig("base", o.CPUs)
		if err != nil {
			recordErr = err
			return
		}
		cfg.Sinks = []trace.Sink{&recordedAll, trace.AppOnly(&recordedApp)}
		m, err := machine.New(cfg)
		if err != nil {
			recordErr = err
			return
		}
		_, recordErr = m.Run()
	})
	if recordErr != nil {
		t.Fatal(recordErr)
	}
	if len(recordedApp) == 0 || len(recordedApp) == len(recordedAll) {
		t.Fatalf("recorded %d runs, %d of them application", len(recordedAll), len(recordedApp))
	}
	return recordedAll, recordedApp
}

var (
	recordOnce               sync.Once
	recordErr                error
	recordedAll, recordedApp recorder
)

type recorder []trace.FetchRun

func (r *recorder) Fetch(run trace.FetchRun) { *r = append(*r, run) }

// checkPairAgainstICache replays runs through a Pair and through the general
// two-way ICache of the same geometry (itself held to the map-and-list
// reference above) and requires the miss count of every run to agree: the
// machine charges each run's misses to a clock that decides what runs next,
// so equal totals would not be enough. Before each run it also holds the
// pair's Hit to its definition, kept here as each set's last-touched line:
// Hit is true exactly when the run lies in one line and that line is the last
// its set touched, and then both caches must miss nothing. It returns the
// ICache's statistics and the number of runs Hit was true for.
func checkPairAgainstICache(t testing.TB, sizeBytes, lineBytes int, runs []trace.FetchRun) (*cache.Stats, int) {
	t.Helper()
	pair := cache.NewPair(sizeBytes, lineBytes)
	ic := cache.New(cache.Config{SizeBytes: sizeBytes, LineBytes: lineBytes, Assoc: 2})
	sets := uint64(sizeBytes / (2 * lineBytes))
	last := make(map[uint64]uint64) // set -> line last touched there
	total, hits := 0, 0
	for i, r := range runs {
		first, end := r.Addr/uint64(lineBytes), (r.Addr+uint64(r.Words)*isa.WordBytes-1)/uint64(lineBytes)
		mru, ok := last[first%sets]
		wantHit := first == end && ok && mru == first
		hit := pair.Hit(r.Addr, r.Words)
		if hit != wantHit {
			t.Fatalf("%s: run %d of %d (%#x, %d words): Hit = %v, want %v (lines %d-%d, set's last line %d, %v)",
				ic.Config(), i, len(runs), r.Addr, r.Words, hit, wantHit, first, end, mru, ok)
		}
		got, want := pair.Misses(r.Addr, r.Words), ic.FetchWords(r.Addr, r.Words, r.Kernel)
		if got != want {
			t.Fatalf("%s: run %d of %d (%#x, %d words): the pair missed %d lines, the ICache %d",
				ic.Config(), i, len(runs), r.Addr, r.Words, got, want)
		}
		if hit && got != 0 {
			t.Fatalf("%s: run %d of %d (%#x, %d words): Hit, yet %d misses", ic.Config(), i, len(runs), r.Addr, r.Words, got)
		}
		for ln := first; ln <= end; ln++ {
			last[ln%sets] = ln
		}
		if hit {
			hits++
		}
		total += got
	}
	if st := ic.Stats(); uint64(total) != st.Misses {
		t.Fatalf("%s: %d misses summed over the runs, %d in the ICache's statistics", ic.Config(), total, st.Misses)
	}
	return ic.Stats(), hits
}

// TestPairMatchesICacheOnRandomRuns: the machine's geometry and smaller ones,
// on looping streams several times the cache, runs of up to 40 words (three
// 64-byte lines).
func TestPairMatchesICacheOnRandomRuns(t *testing.T) {
	for _, g := range [][2]int{{64 << 10, 64}, {4 << 10, 64}, {4 << 10, 16}, {2 << 10, 128}, {512, 256}} {
		rng := rand.New(rand.NewSource(int64(g[0] + g[1])))
		st, hits := checkPairAgainstICache(t, g[0], g[1], randomRuns(rng, 50_000, 4*uint64(g[0])))
		if st.Misses == 0 || st.Misses == st.Accesses {
			t.Errorf("%s: %d misses of %d accesses; the trace does not exercise replacement", st.Config, st.Misses, st.Accesses)
		}
		if hits == 0 {
			t.Errorf("%s: Hit was never true; the trace does not exercise it", st.Config)
		}
	}
}

// TestPairMatchesICacheOnMachineRuns: the inline L1I's own geometry on a
// machine-recorded stream, application and kernel runs interleaved as one CPU
// fetched them.
func TestPairMatchesICacheOnMachineRuns(t *testing.T) {
	all, _ := machineRuns(t)
	for _, size := range []int{64 << 10, 4 << 10} {
		// The recorded image is small beside 64 KB; a cache it wraps many
		// times over makes the same stream exercise replacement.
		_, hits := checkPairAgainstICache(t, size, 64, all)
		t.Logf("%d KB: Hit on %d of %d runs (%.1f%%)", size>>10, hits, len(all), 100*float64(hits)/float64(len(all)))
	}
}

// FuzzPair turns bytes into a two-way geometry (any power-of-two set count
// and line size) and a fetch stream whose runs span up to sixteen lines, and
// requires the pair to miss, run by run, where the ICache misses.
func FuzzPair(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 8, 0, 1, 0, 8, 0x80, 0, 0, 40, 1, 0x10, 0, 3, 0})
	f.Add([]byte{0x25, 0xff, 0xff, 255, 1, 0, 0, 0, 0, 0xff, 0xfe, 255, 0})
	// One set of 64-byte lines; lines A, B, A, C, A, B. The second A hits the
	// second way and must move to the first, or C evicts A instead of B.
	f.Add([]byte{0x04, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		line := 4 << (int(data[0]&0x0f) % 7) // 4 B (one word) to 256 B
		sets := 1 << (int(data[0]>>4) % 8)   // 1 to 128 sets
		var runs []trace.FetchRun
		// Four bytes a run: a word address inside 256KB, a length of up to
		// 256 words, and the owner.
		for data = data[1:]; len(data) >= 4; data = data[4:] {
			runs = append(runs, trace.FetchRun{
				Addr:   (uint64(data[0])<<8 | uint64(data[1])) * isa.WordBytes,
				Words:  1 + int32(data[2]),
				Kernel: data[3]&1 != 0,
			})
		}
		checkPairAgainstICache(t, 2*sets*line, line, runs)
	})
}

// familyOf lists the configs of one family: sizes in the given order, at one
// line size and associativity, the member of wordsSize tracking words.
func familyOf(sizes []int, line, assoc, wordsSize int) []cache.Config {
	cfgs := make([]cache.Config, len(sizes))
	for i, size := range sizes {
		cfgs[i] = cache.Config{SizeBytes: size, LineBytes: line, Assoc: assoc, WordStats: size == wordsSize}
	}
	return cfgs
}

// checkFamilyAgainstOracle replays runs through one Family and through one
// reference cache per member, and requires every statistic of every member
// to agree — an independent cache per size is what the walk claims to equal.
func checkFamilyAgainstOracle(t *testing.T, cfgs []cache.Config, runs []trace.FetchRun) {
	t.Helper()
	fam, err := cache.NewFamily(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*refCache, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = newRefCache(cfg)
	}
	for _, r := range runs {
		fam.Fetch(r)
		for _, ref := range refs {
			ref.Fetch(r)
		}
	}
	fam.Finalize()
	for i, got := range fam.Stats() {
		if want := refs[i].finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: member %s and its reference disagree over %d runs:\n got %+v\nwant %+v", cfgs, cfgs[i], len(runs), got, want)
		}
		if got.Misses == 0 || got.Misses == got.Accesses {
			t.Errorf("%s: %d misses of %d accesses; the trace does not exercise replacement", cfgs[i], got.Misses, got.Accesses)
		}
	}
}

// familySizes is a five-point size axis small enough for random streams to
// wrap every member.
var familySizes = []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}

// TestFamilyMatchesReferenceOnRandomRuns checks the smallest-first walk, for
// every associativity and line size the battery uses, over five sizes with
// the word-tracking member in the middle, on random streams of mixed
// application and kernel runs.
func TestFamilyMatchesReferenceOnRandomRuns(t *testing.T) {
	for seed, assoc := range []int{1, 2, 4} {
		for _, line := range []int{16, 32, 64, 128, 256} {
			cfgs := familyOf(familySizes, line, assoc, 8<<10)
			t.Run(strings.ReplaceAll(cfgs[0].String(), "/", "-"), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000 + 100*seed + line)))
				checkFamilyAgainstOracle(t, cfgs, randomRuns(rng, 20_000, 4*32<<10))
			})
		}
	}
}

// TestFamilyMatchesReferenceOnEverySubset builds the family of every
// non-empty subset of the five sizes — what a partial SinkSet asks the
// battery for — configured largest first, so the walk order is the family's
// own and statistics still come back in configured order.
func TestFamilyMatchesReferenceOnEverySubset(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	runs := randomRuns(rng, 10_000, 4*32<<10)
	for mask := 1; mask < 1<<len(familySizes); mask++ {
		var sizes []int
		for i := len(familySizes) - 1; i >= 0; i-- {
			if mask&(1<<i) != 0 {
				sizes = append(sizes, familySizes[i])
			}
		}
		checkFamilyAgainstOracle(t, familyOf(sizes, 64, 4, 8<<10), runs)
		checkFamilyAgainstOracle(t, familyOf(sizes, 32, 1, 0), runs)
	}
}

// TestFamilyMatchesReferenceOnMachineRuns checks the battery's own family
// rows — the cache-size axis of Figures 4 to 7 and 12 — on machine-recorded
// runs: a direct-mapped application family, the 4-way application family
// whose 128KB member tracks words, and the 4-way combined family.
func TestFamilyMatchesReferenceOnMachineRuns(t *testing.T) {
	all, app := machineRuns(t)
	var sizes []int
	for _, kb := range expt.CacheSizesKB {
		sizes = append(sizes, kb<<10)
	}
	for _, c := range []struct {
		stream string
		runs   []trace.FetchRun
		cfgs   []cache.Config
	}{
		{"app", app, familyOf(sizes, 32, 1, 0)},
		{"app", app, familyOf(sizes, 128, 4, 128<<10)},
		{"combined", all, familyOf(sizes, 128, 4, 0)},
	} {
		name := c.stream + "-" + strings.ReplaceAll(c.cfgs[0].String(), "/", "-")
		t.Run(name, func(t *testing.T) { checkFamilyAgainstOracle(t, c.cfgs, c.runs) })
	}
}

// TestNewFamilyRejects: members must be valid caches of one line size and
// associativity, each size once.
func TestNewFamilyRejects(t *testing.T) {
	ok := cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 2}
	for name, cfgs := range map[string][]cache.Config{
		"no members":     nil,
		"invalid member": {ok, {SizeBytes: 3 << 10, LineBytes: 64, Assoc: 2}},
		"line differs":   {ok, {SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}},
		"ways differ":    {ok, {SizeBytes: 16 << 10, LineBytes: 64, Assoc: 4}},
		"size repeated":  {ok, {SizeBytes: 16 << 10, LineBytes: 64, Assoc: 2}, ok},
	} {
		if _, err := cache.NewFamily(cfgs...); err == nil {
			t.Errorf("%s: NewFamily accepted %v", name, cfgs)
		}
	}
	for _, cfg := range []cache.Config{
		{SizeBytes: 0, LineBytes: 64, Assoc: 1},
		{SizeBytes: 8 << 10, LineBytes: 0, Assoc: 1},
		{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 0},
		{SizeBytes: 8 << 10, LineBytes: 48, Assoc: 1},
		{SizeBytes: 8 << 10, LineBytes: 2, Assoc: 1},
		{SizeBytes: 3 << 10, LineBytes: 64, Assoc: 1},
		{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 3},
	} {
		if cfg.Validate() == nil {
			t.Errorf("%+v validates", cfg)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("%s: %v", ok, err)
	}
}

// FuzzFamily turns bytes into a family shape and a fetch stream and requires
// the family to read, member by member and field by field, what independent
// ICaches over the same stream read. It also resets a second family part way
// through the stream, at the fraction data[2]/5 of 52 of it, and holds it to
// checkResetAt.
func FuzzFamily(f *testing.F) {
	f.Add([]byte{0x00, 0x1f, 0x02, 0, 0, 8, 0, 1, 0, 8, 0x80, 0, 0, 40, 1, 0x10, 0, 3, 0})
	f.Add([]byte{0x16, 0x05, 0x00, 0xff, 0xff, 63, 1, 0, 0, 0, 0})
	f.Add([]byte{0x29, 0x1b, 0x01})
	// Two-way, every size, the smallest tracking words, reset halfway.
	f.Add([]byte{0x01, 0x1f, 130, 0, 0, 8, 0, 1, 0, 8, 0x80, 0, 0, 40, 1, 0x10, 0, 3, 0, 0, 0, 63, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		assoc := []int{1, 2, 4}[int(data[0]&0x0f)%3]
		line := 16 << (int(data[0]>>4) % 5)
		mask := int(data[1]) & 0x1f
		if mask == 0 {
			mask = 0x1f
		}
		var sizes []int
		for i := range familySizes {
			if mask&(1<<i) != 0 {
				sizes = append(sizes, familySizes[i])
			}
		}
		if data[1]&0x20 != 0 { // configured largest first
			slices.Reverse(sizes)
		}
		cfgs := familyOf(sizes, line, assoc, familySizes[int(data[2])%len(familySizes)])
		cutOf52 := int(data[2]) / len(familySizes)
		fam, err := cache.NewFamily(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		alone := make([]*cache.ICache, len(cfgs))
		for i, cfg := range cfgs {
			alone[i] = cache.New(cfg)
		}
		// Four bytes a run: a word address inside 256KB, a length of up to
		// 64 words, and the owner.
		var runs []trace.FetchRun
		for data = data[3:]; len(data) >= 4; data = data[4:] {
			r := trace.FetchRun{
				Addr:   (uint64(data[0])<<8 | uint64(data[1])) * isa.WordBytes,
				Words:  1 + int32(data[2]&63),
				Kernel: data[3]&1 != 0,
			}
			runs = append(runs, r)
			fam.Fetch(r)
			for _, ic := range alone {
				ic.Fetch(r)
			}
		}
		fam.Finalize()
		for i, got := range fam.Stats() {
			alone[i].Finalize()
			if want := alone[i].Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s in %v:\n got %+v\nwant %+v", cfgs[i], cfgs, got, want)
			}
		}
		checkResetAt(t, len(runs)*cutOf52/52, len(runs), func() *cache.Family {
			f, _ := cache.NewFamily(cfgs...)
			return f
		}, (*cache.Family).Reset, func(f *cache.Family, i int) { f.Fetch(runs[i]) }, (*cache.Family).Finalize)
	})
}
