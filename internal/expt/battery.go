package expt

import (
	"codelayout/internal/cache"
	"codelayout/internal/machine"
	"codelayout/internal/mem"
	"codelayout/internal/tlb"
	"codelayout/internal/trace"
)

// The parameter grids of the paper's evaluation.
var (
	// CacheSizesKB is Figure 4/6/7/12's cache-size axis.
	CacheSizesKB = []int{32, 64, 128, 256, 512}
	// LineSizes is Figure 4/5's line-size axis.
	LineSizes = []int{16, 32, 64, 128, 256}
)

// Measure holds everything one simulated run produces.
type Measure struct {
	Res machine.Result

	// Latency is the run's per-transaction latency breakdown per home
	// shard × transaction kind (the run-wide summary is Res.Latency).
	Latency []machine.TxnLatency
	// GCWindows reports the per-shard group-commit windows in force at the
	// end of the run (the tuned values under an AutoGroupCommit mode).
	GCWindows []uint64

	// AppDM[size][line] — application-only, direct-mapped (Figures 4, 5).
	AppDM map[int]map[int]*cache.Stats
	// App4W[size] — application-only, 128B lines, 4-way (Figures 6, 7, 12).
	// App4W[128] is the same simulated cache as Word.
	App4W map[int]*cache.Stats
	// Comb4W[size] — combined app+kernel, 128B, 4-way (Figure 12).
	Comb4W map[int]*cache.Stats
	// Kern4W[size] — kernel-only, 128B, 4-way (Figure 12).
	Kern4W map[int]*cache.Stats

	// Word: application-only 128KB/128B/4-way with word tracking
	// (Figures 9, 10, 11 and the unused-fetch statistic).
	Word *cache.Stats
	// Intf: combined 128KB/128B/4-way for interference attribution
	// (Figure 13) — the same simulated cache as Comb4W[128].
	Intf *cache.Stats

	// Seq and Foot observe the application stream (Figure 8, footprint).
	Seq  *trace.SeqLen
	Foot *trace.Footprint

	AppRuns trace.Counter
	AllRuns trace.Counter

	// ITLB64/ITLB48: merged iTLB misses (64-entry SimOS config, 48-entry
	// 21164 config).
	ITLB64 uint64
	ITLB48 uint64

	// HW21264/HW21164: the hardware platforms' L1 I-caches (combined
	// stream): 64KB 2-way 64B and 8KB direct-mapped 32B. These are the same
	// simulators that feed the SimOS L2 and the 21164 board cache.
	HW21264 *cache.Stats
	HW21164 *cache.Stats

	// Mem: the SimOS memory system (64KB/64B/2-way L1I+L1D feeding a 1.5MB
	// 6-way unified L2) — Figure 14.
	Mem mem.Stats
	// Board: the 21164-like system (8KB L1s feeding a 2MB direct-mapped
	// board cache).
	Board mem.Stats
}

// battery wires up every sink for one run.
type battery struct {
	cpus int

	appDM  map[int]map[int]*perCPUCache
	app4W  map[int]*perCPUCache
	comb4W map[int]*perCPUCache
	kern4W map[int]*perCPUCache
	word   *perCPUCache

	seq    *trace.SeqLen
	foot   *trace.Footprint
	appCnt *trace.Counter
	allCnt *trace.Counter
	itlb64 *perCPUTLB
	itlb48 *perCPUTLB
	memsys *mem.System
	board  *mem.System

	simosL1I *perCPUCache // 64KB/64B/2-way, feeds memsys (doubles as 21264 L1I)
	boardL1I *perCPUCache // 8KB/32B/direct, feeds board (doubles as 21164 L1I)
}

func newBattery(cpus int) *battery {
	b := &battery{
		cpus:   cpus,
		appDM:  make(map[int]map[int]*perCPUCache),
		app4W:  make(map[int]*perCPUCache),
		comb4W: make(map[int]*perCPUCache),
		kern4W: make(map[int]*perCPUCache),
	}
	for _, size := range CacheSizesKB {
		b.appDM[size] = make(map[int]*perCPUCache)
		for _, line := range LineSizes {
			b.appDM[size][line] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: line, Assoc: 1}, cpus)
		}
		if size != 128 { // Word is the 128KB one: word tracking never changes a hit or a victim
			b.app4W[size] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: 128, Assoc: 4}, cpus)
		}
		b.comb4W[size] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: 128, Assoc: 4}, cpus)
		b.kern4W[size] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: 128, Assoc: 4}, cpus)
	}
	b.word = newPerCPUCache(cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4, WordStats: true}, cpus)
	b.seq = trace.NewSeqLen()
	b.foot = trace.NewFootprint(128)
	b.appCnt = &trace.Counter{}
	b.allCnt = &trace.Counter{}
	b.itlb64 = newPerCPUTLB(64, cpus)
	b.itlb48 = newPerCPUTLB(48, cpus)

	b.memsys = mem.NewSystem(mem.DefaultConfig(cpus))
	b.simosL1I = newPerCPUCache(cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}, cpus)
	for c, ic := range b.simosL1I.sims {
		cc := c
		ic.OnMiss(func(lineAddr uint64, kernel bool) { b.memsys.FetchMiss(lineAddr, cc) })
	}
	b.board = mem.NewSystem(mem.Config{
		CPUs:         cpus,
		L1DSizeBytes: 8 << 10, L1DLineBytes: 32, L1DAssoc: 1,
		L2SizeBytes: 2 << 20, L2LineBytes: 64, L2Assoc: 1,
	})
	b.boardL1I = newPerCPUCache(cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}, cpus)
	for c, ic := range b.boardL1I.sims {
		cc := c
		ic.OnMiss(func(lineAddr uint64, kernel bool) { b.board.FetchMiss(lineAddr, cc) })
	}
	return b
}

func (b *battery) sinks() []trace.Sink {
	var appSinks trace.Tee
	for _, perLine := range b.appDM {
		for _, c := range perLine {
			appSinks = append(appSinks, c)
		}
	}
	for _, c := range b.app4W {
		appSinks = append(appSinks, c)
	}
	appSinks = append(appSinks, b.word, b.seq, b.foot, b.appCnt)

	var kernSinks trace.Tee
	for _, c := range b.kern4W {
		kernSinks = append(kernSinks, c)
	}

	var combined trace.Tee
	for _, c := range b.comb4W {
		combined = append(combined, c)
	}
	combined = append(combined, b.allCnt, b.itlb64, b.itlb48, b.simosL1I, b.boardL1I)

	return []trace.Sink{
		trace.AppOnly(appSinks),
		trace.KernelOnly(kernSinks),
		combined,
	}
}

func (b *battery) dataSinks() []trace.DataSink {
	return []trace.DataSink{b.memsys, b.board}
}

func (b *battery) finish(res machine.Result) *Measure {
	m := &Measure{
		Res:    res,
		AppDM:  make(map[int]map[int]*cache.Stats),
		App4W:  make(map[int]*cache.Stats),
		Comb4W: make(map[int]*cache.Stats),
		Kern4W: make(map[int]*cache.Stats),
	}
	for size, perLine := range b.appDM {
		m.AppDM[size] = make(map[int]*cache.Stats)
		for line, c := range perLine {
			m.AppDM[size][line] = c.stats()
		}
	}
	for size, c := range b.app4W {
		m.App4W[size] = c.stats()
	}
	for size, c := range b.comb4W {
		m.Comb4W[size] = c.stats()
	}
	for size, c := range b.kern4W {
		m.Kern4W[size] = c.stats()
	}
	m.Word = b.word.stats()
	m.App4W[128] = m.Word
	m.Intf = m.Comb4W[128]
	b.seq.Flush()
	m.Seq = b.seq
	m.Foot = b.foot
	m.AppRuns = *b.appCnt
	m.AllRuns = *b.allCnt
	m.ITLB64 = b.itlb64.misses()
	m.ITLB48 = b.itlb48.misses()
	m.HW21264 = b.simosL1I.stats()
	m.HW21164 = b.boardL1I.stats()
	m.Mem = b.memsys.Stats
	m.Board = b.board.Stats
	return m
}

// perCPUCache routes runs to one ICache per CPU and merges their stats.
type perCPUCache struct {
	sims []*cache.ICache
	cfg  cache.Config
}

func newPerCPUCache(cfg cache.Config, cpus int) *perCPUCache {
	p := &perCPUCache{cfg: cfg}
	for i := 0; i < cpus; i++ {
		p.sims = append(p.sims, cache.New(cfg))
	}
	return p
}

// Fetch implements trace.Sink.
func (p *perCPUCache) Fetch(r trace.FetchRun) {
	i := int(r.CPU)
	if i >= len(p.sims) {
		i = len(p.sims) - 1
	}
	p.sims[i].Fetch(r)
}

func (p *perCPUCache) stats() *cache.Stats {
	merged := cache.NewStats(p.cfg)
	for _, c := range p.sims {
		c.Finalize()
		merged.Merge(c.Stats())
	}
	return merged
}

// perCPUTLB routes runs to one iTLB per CPU.
type perCPUTLB struct {
	tlbs []*tlb.TLB
}

func newPerCPUTLB(entries, cpus int) *perCPUTLB {
	p := &perCPUTLB{}
	for i := 0; i < cpus; i++ {
		p.tlbs = append(p.tlbs, tlb.New(entries))
	}
	return p
}

// Fetch implements trace.Sink.
func (p *perCPUTLB) Fetch(r trace.FetchRun) {
	i := int(r.CPU)
	if i >= len(p.tlbs) {
		i = len(p.tlbs) - 1
	}
	p.tlbs[i].Fetch(r)
}

func (p *perCPUTLB) misses() uint64 {
	var n uint64
	for _, t := range p.tlbs {
		n += t.Misses
	}
	return n
}
