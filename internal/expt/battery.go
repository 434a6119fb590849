package expt

import (
	"fmt"

	"codelayout/internal/cache"
	"codelayout/internal/machine"
	"codelayout/internal/mem"
	"codelayout/internal/stats"
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

// Measure holds what one simulated run produced: the machine's own results,
// and the fields of the sink groups the run attached (Sinks). A field of a
// group outside Sinks is nil or zero — nothing simulated it.
type Measure struct {
	Res machine.Result
	// Sinks is the set of sink groups the run was measured with.
	Sinks SinkSet

	// Latency is the run's per-transaction latency breakdown per home
	// shard × transaction kind (the run-wide summary is Res.Latency).
	Latency []machine.TxnLatency
	// GCWindows reports the per-shard group-commit windows in force at the
	// end of the run (the tuned values under an AutoGroupCommit mode).
	GCWindows []uint64

	// AppDM[size][line] — application-only, direct-mapped (Figures 4, 5).
	AppDM map[int]map[int]*cache.Stats
	// App4W[size] — application-only, 128B lines, 4-way (Figures 6, 7, 12).
	// App4W[128] also tracks words (Figures 9, 10, 11 and the unused-fetch
	// statistic).
	App4W map[int]*cache.Stats
	// Comb4W[size] — combined app+kernel, 128B, 4-way (Figure 12).
	// Comb4W[128] also attributes interference (Figure 13).
	Comb4W map[int]*cache.Stats
	// Kern4W[size] — kernel-only, 128B, 4-way (Figure 12).
	Kern4W map[int]*cache.Stats

	// Seq is the histogram of the application stream's sequence lengths
	// (Figure 8), and AppRuns the fetch runs it was fed: Seq.Sum/AppRuns is
	// the mean basic block.
	Seq     *stats.Hist
	AppRuns uint64
	// Foot is the application stream's footprint.
	Foot Footprint

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

// Footprint is the text a stream touched: its unique 128B lines, in bytes,
// and its unique pages.
type Footprint struct {
	Bytes int64
	Pages int
}

// SinkSet names the sink groups a measured run attaches: what the reader of
// its Measure will read, and so all the run simulates beyond the machine
// itself. Sets combine with |. Res, Latency and GCWindows come from the
// machine and are valid under every set, NoSinks included.
type SinkSet uint32

const (
	SinkAppDM  SinkSet = 1 << iota // AppDM: all 25 size × line caches
	SinkSeq                        // Seq, AppRuns
	SinkFoot                       // Foot
	SinkITLB                       // ITLB64, ITLB48
	SinkMem                        // Mem, and HW21264: the L1I whose misses feed Mem's L2
	SinkBoard                      // Board, and HW21164 likewise
	sinkApp4W                      // App4W[size]: five bits, one per CacheSizesKB entry
	sinkComb4W         = sinkApp4W << 5
	sinkKern4W         = sinkComb4W << 5

	NoSinks  SinkSet = 0
	AllSinks         = sinkKern4W<<5 - 1
)

// SinkApp4W, SinkComb4W and SinkKern4W name one cache of a 4-way family by
// its size, a CacheSizesKB entry (any other size names no cache: the empty
// set).
func SinkApp4W(sizeKB int) SinkSet  { return sizeBit(sinkApp4W, sizeKB) }
func SinkComb4W(sizeKB int) SinkSet { return sizeBit(sinkComb4W, sizeKB) }
func SinkKern4W(sizeKB int) SinkSet { return sizeBit(sinkKern4W, sizeKB) }

func sizeBit(first SinkSet, sizeKB int) SinkSet {
	for i, s := range CacheSizesKB {
		if s == sizeKB {
			return first << i
		}
	}
	return NoSinks
}

// stream is the part of the fetch stream a sink observes.
type stream int

const (
	appStream stream = iota
	kernStream
	combStream
	numStreams
)

// sinkGroup is one row of the battery: its name in errors, the set bits that
// ask for it, the fetch stream it observes, and build, which makes its
// simulators for a run of set on a cpus-processor machine.
type sinkGroup struct {
	name   string
	in     SinkSet
	stream stream
	build  func(cpus int, set SinkSet) sims
}

// sims is what a group's build made: the fetch sink of each CPU, the data
// sink if the group has one, collect, which files the simulators' results in
// a Measure, and reset, which readies them for another run of the same shape
// once collect has run.
type sims struct {
	fetch   []trace.Sink
	data    trace.DataSink
	collect func(*Measure)
	reset   func()
}

// sinkGroups is the battery, every group listed once.
var sinkGroups = func() []sinkGroup {
	var gs []sinkGroup
	// family is one row per size sweep: the caches of one line size and
	// associativity over one stream, CacheSizesKB[i] asked for by bit(i),
	// simulated as one cache.Family of the members a run asks for — one
	// walk per fetched line in which every member still reads exactly what
	// a cache of its own would.
	family := func(name string, bit func(i int) SinkSet, st stream, cfg func(sizeKB int) cache.Config, file func(m *Measure, sizeKB int, st *cache.Stats)) {
		var in SinkSet
		for i := range CacheSizesKB {
			in |= bit(i)
		}
		gs = append(gs, sinkGroup{name, in, st, func(cpus int, set SinkSet) sims {
			var sizes []int
			var cfgs []cache.Config
			for i, size := range CacheSizesKB {
				if bit(i)&set != 0 {
					sizes = append(sizes, size)
					cfgs = append(cfgs, cfg(size))
				}
			}
			fams, sinks := perCPU(cpus, func() *cache.Family {
				f, err := cache.NewFamily(cfgs...)
				if err != nil {
					panic(err) // the rows below are constants
				}
				return f
			})
			collect := func(m *Measure) {
				merged := make([]*cache.Stats, len(cfgs))
				for i, c := range cfgs {
					merged[i] = cache.NewStats(c)
				}
				for _, f := range fams {
					f.Finalize()
					for i, st := range f.Stats() {
						merged[i].Merge(st)
					}
				}
				for i, size := range sizes {
					file(m, size, merged[i])
				}
			}
			return sims{fetch: sinks, collect: collect, reset: func() {
				for _, f := range fams {
					f.Reset()
				}
			}}
		}})
	}
	for _, line := range LineSizes {
		family(fmt.Sprintf("AppDM/%dB", line), func(int) SinkSet { return SinkAppDM }, appStream,
			func(size int) cache.Config { return cache.Config{SizeBytes: size << 10, LineBytes: line, Assoc: 1} },
			func(m *Measure, size int, st *cache.Stats) {
				if m.AppDM[size] == nil {
					put(&m.AppDM, size, make(map[int]*cache.Stats))
				}
				m.AppDM[size][line] = st
			})
	}
	fourWay := func(name string, first SinkSet, st stream, wordsKB int, file func(m *Measure, sizeKB int, st *cache.Stats)) {
		family(name, func(i int) SinkSet { return first << i }, st,
			func(size int) cache.Config {
				return cache.Config{SizeBytes: size << 10, LineBytes: 128, Assoc: 4, WordStats: size == wordsKB}
			}, file)
	}
	// The 128KB application cache tracks words: word tracking never changes
	// a hit or a victim.
	fourWay("App4W", sinkApp4W, appStream, 128, func(m *Measure, size int, st *cache.Stats) { put(&m.App4W, size, st) })
	fourWay("Comb4W", sinkComb4W, combStream, 0, func(m *Measure, size int, st *cache.Stats) { put(&m.Comb4W, size, st) })
	fourWay("Kern4W", sinkKern4W, kernStream, 0, func(m *Measure, size int, st *cache.Stats) { put(&m.Kern4W, size, st) })

	// single is a group of one sink that keeps the CPUs apart itself, or
	// does not tell them apart. mk returns the sink and the group's collect
	// and reset.
	single := func(name string, in SinkSet, st stream, mk func() (trace.Sink, func(*Measure), func())) sinkGroup {
		return sinkGroup{name, in, st, func(cpus int, _ SinkSet) sims {
			s, collect, reset := mk()
			sinks := make([]trace.Sink, cpus)
			for i := range sinks {
				sinks[i] = s
			}
			return sims{fetch: sinks, collect: collect, reset: reset}
		}}
	}
	// itlb is both iTLBs: one 64-entry LRU stack per CPU, whose hits below
	// depth 48 are the 48-entry iTLB's misses beyond its own.
	itlb := sinkGroup{"ITLB", SinkITLB, combStream, func(cpus int, _ SinkSet) sims {
		tlbs, sinks := perCPU(cpus, func() *tlb.TLB { return tlb.New(64) })
		return sims{fetch: sinks, collect: func(m *Measure) {
			for _, one := range tlbs {
				m.ITLB64 += one.Misses
				m.ITLB48 += one.MissesAt(48)
			}
		}, reset: func() {
			for _, one := range tlbs {
				one.Reset()
			}
		}}
	}}
	// memory is an L1I per CPU whose misses feed the unified L2 of a memory
	// system that also takes the data references.
	memory := func(name string, in SinkSet, l1i cache.Config, sys mem.Config, file func(*Measure, *cache.Stats, mem.Stats)) sinkGroup {
		return sinkGroup{name, in, combStream, func(cpus int, _ SinkSet) sims {
			sys := sys // builds run concurrently
			sys.CPUs = cpus
			ms := mem.NewSystem(sys)
			l1is, sinks := perCPU(cpus, func() *cache.ICache { return cache.New(l1i) })
			for cpu, ic := range l1is {
				ic.OnMiss(func(lineAddr uint64, kernel bool) { ms.FetchMiss(lineAddr, cpu) })
			}
			return sims{fetch: sinks, data: ms, collect: func(m *Measure) {
				merged := cache.NewStats(l1i)
				for _, ic := range l1is {
					ic.Finalize()
					merged.Merge(ic.Stats())
				}
				file(m, merged, ms.Stats)
			}, reset: func() {
				ms.Reset()
				for _, ic := range l1is {
					ic.Reset() // keeps its miss callback into ms
				}
			}}
		}}
	}
	return append(gs,
		single("Seq", SinkSeq, appStream, func() (trace.Sink, func(*Measure), func()) {
			s := trace.NewSeqLen()
			return s, func(m *Measure) { s.Flush(); m.Seq, m.AppRuns = s.Hist, s.Runs }, s.Reset
		}),
		single("Foot", SinkFoot, appStream, func() (trace.Sink, func(*Measure), func()) {
			f := trace.NewFootprint(128)
			return f, func(m *Measure) { m.Foot = Footprint{f.Bytes(), f.Pages()} }, f.Reset
		}),
		itlb,
		memory("Mem", SinkMem, cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}, mem.DefaultConfig(0),
			func(m *Measure, l1i *cache.Stats, st mem.Stats) { m.HW21264, m.Mem = l1i, st }),
		memory("Board", SinkBoard, cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
			mem.Config{
				L1DSizeBytes: 8 << 10, L1DLineBytes: 32, L1DAssoc: 1,
				L2SizeBytes: 2 << 20, L2LineBytes: 64, L2Assoc: 1,
			},
			func(m *Measure, l1i *cache.Stats, st mem.Stats) { m.HW21164, m.Board = l1i, st }),
	)
}()

// perCPU makes one simulator per CPU and lists them again as the fetch sinks
// a lane indexes with a run's CPU.
func perCPU[S trace.Sink](cpus int, mk func() S) ([]S, []trace.Sink) {
	sims, sinks := make([]S, cpus), make([]trace.Sink, cpus)
	for i := range sims {
		sims[i] = mk()
		sinks[i] = sims[i]
	}
	return sims, sinks
}

// put stores v under k, making the map on first use: a Measure's maps stay
// nil until a requested group files something in them.
func put[V any](m *map[int]V, k int, v V) {
	if *m == nil {
		*m = make(map[int]V)
	}
	(*m)[k] = v
}
