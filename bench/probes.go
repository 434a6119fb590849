package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"

	"codelayout/internal/appmodel"
	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/db"
	"codelayout/internal/expt"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/mem"
	"codelayout/internal/predict"
	"codelayout/internal/probe"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/pstore"
	"codelayout/internal/shard"
	"codelayout/internal/tlb"
	"codelayout/internal/trace"
)

// capture keeps a run's measured-phase fetch runs and data references in
// memory, up to max of each, and counts all of them.
type capture struct {
	max  int
	runs []trace.FetchRun
	refs []trace.DataRef

	seenRuns, seenRefs, words uint64
}

func (c *capture) Fetch(r trace.FetchRun) {
	c.seenRuns++
	c.words += uint64(r.Words)
	if len(c.runs) < c.max {
		c.runs = append(c.runs, r)
	}
}

func (c *capture) Data(r trace.DataRef) {
	c.seenRefs++
	if len(c.refs) < c.max {
		c.refs = append(c.refs, r)
	}
}

func (c *capture) mb() float64 {
	bytes := len(c.runs)*int(unsafe.Sizeof(trace.FetchRun{})) + len(c.refs)*int(unsafe.Sizeof(trace.DataRef{}))
	return float64(bytes) / (1 << 20)
}

// probeCtx is what the per-layer probes of one traced run share.
type probeCtx struct {
	rc   runConfig
	p    prepared
	last *repOutcome
	tr   *tracer
	cap  *capture
	out  map[string]value
}

// set records a per-layer metric under the unit the metric table gives it.
func (c *probeCtx) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			c.out[name] = single(v, d.Unit)
			return
		}
	}
	panic("bench: probe set unknown per-layer metric " + name)
}

// probe runs f in a span named after the layer.
func (c *probeCtx) probe(layer string, f func() error) error {
	if err := c.tr.do("probe."+layer, f); err != nil {
		return fmt.Errorf("%s probe: %w", layer, err)
	}
	return nil
}

// nsPer times n calls of f and returns nanoseconds per call.
func nsPer(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- machine, profile (direct runs at the subject configuration) ----

// machineTiming is the host cost of one direct simulation, by phase.
type machineTiming struct {
	newWall, runWall, checkWall time.Duration
	mallocs, allocBytes         uint64
	res                         machine.Result
}

func timeMachine(cfg machine.Config) (machineTiming, error) {
	var mt machineTiming
	runtime.GC()
	t0 := time.Now()
	m, err := machine.New(cfg)
	if err != nil {
		return mt, err
	}
	mt.newWall = time.Since(t0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	if mt.res, err = m.Run(); err != nil {
		return mt, err
	}
	mt.runWall = time.Since(t0)
	runtime.ReadMemStats(&after)
	mt.mallocs, mt.allocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t0 = time.Now()
	if err := m.CheckInvariants(); err != nil {
		return mt, err
	}
	mt.checkWall = time.Since(t0)
	return mt, nil
}

// fastestOf runs the configuration mk builds n times and keeps the run with
// the shortest Run phase: the comparisons below subtract two runs of about a
// second each, and interference from the host only ever adds time.
func fastestOf(n int, mk func() machine.Config) (machineTiming, error) {
	var best machineTiming
	for i := 0; i < n; i++ {
		mt, err := timeMachine(mk())
		if err != nil {
			return mt, err
		}
		if i == 0 || mt.runWall < best.runWall {
			best = mt
		}
	}
	return best, nil
}

func (c *probeCtx) machineProbes() error {
	txns, warm := c.p.nominal()
	txns = max(txns/c.rc.sz.probeDiv, 1)
	cfg, err := c.p.subjectConfig(c.last, txns, warm)
	if err != nil {
		return err
	}
	const tries = 2
	ref, err := fastestOf(tries, func() machine.Config { return cfg })
	if err != nil {
		return err
	}
	n := float64(txns)
	c.set("machine.new_ms", ms(ref.newWall))
	c.set("machine.run_ns_per_txn", float64(ref.runWall.Nanoseconds())/n)
	c.set("machine.minstr_per_s", float64(ref.res.BusyInstrs)/1e6/ref.runWall.Seconds())
	c.set("machine.allocs_per_txn", float64(ref.mallocs)/n)
	c.set("machine.alloc_bytes_per_txn", float64(ref.allocBytes)/n)
	c.set("machine.check_invariants_ms", ms(ref.checkWall))

	mt, err := fastestOf(tries, func() machine.Config {
		noStall := cfg
		noStall.FetchStallPenaltyInstr = 0
		return noStall
	})
	if err != nil {
		return err
	}
	c.set("machine.inline_l1i_share", 1-mt.runWall.Seconds()/ref.runWall.Seconds())

	var cnt *trace.Counter
	if mt, err = fastestOf(tries, func() machine.Config {
		counted := cfg
		cnt = &trace.Counter{}
		counted.Sinks = []trace.Sink{cnt}
		return counted
	}); err != nil {
		return err
	}
	c.set("machine.sink_ns_per_run", ratio(float64((mt.runWall-ref.runWall).Nanoseconds()), float64(cnt.Runs)))

	if mt, err = fastestOf(tries, func() machine.Config {
		profiled := cfg
		profiled.AppCollector = profile.NewPixie(cfg.AppImage.Prog, "bench-pixie")
		return profiled
	}); err != nil {
		return err
	}
	c.set("profile.pixie_overhead_share", mt.runWall.Seconds()/ref.runWall.Seconds()-1)

	// The capture run feeds every replay probe below with real traffic.
	c.cap = &capture{max: c.rc.sz.captureMax}
	captured := cfg
	captured.Sinks = []trace.Sink{c.cap}
	captured.DataSinks = []trace.DataSink{c.cap}
	if mt, err = timeMachine(captured); err != nil {
		return err
	}
	c.set("bench.capture_runs", float64(len(c.cap.runs)))
	c.set("bench.capture_mb", c.cap.mb())
	c.set("trace.runs_per_txn", float64(c.cap.seenRuns)/float64(mt.res.Committed))
	c.set("trace.words_per_run", ratio(float64(c.cap.words), float64(c.cap.seenRuns)))

	// Counts of the subject run itself, at full size.
	r := subjectResult(c.last)
	c.set("machine.sim_p99_instr", float64(r.Latency.P99))
	c.set("machine.aborted", float64(r.Aborted))
	c.set("machine.idle_instr_share", ratio(float64(r.IdleInstrs), float64(r.IdleInstrs+r.BusyInstrs)))
	c.set("machine.kernel_instr_share", r.KernelFrac())
	c.set("machine.log_blocked_instr_per_txn", float64(r.LogBlockedInstr)/float64(r.Committed))
	c.set("db.lock_conflicts", float64(r.LockConflicts))
	c.set("db.deadlocks", float64(r.Deadlocks))
	c.set("db.log_flushes", float64(r.LogFlushes))
	c.set("db.grouped_commits", float64(r.GroupedCommits))
	c.set("db.buf_misses", float64(r.BufMisses))
	c.set("shard.cross_shard_txns", float64(r.CrossShard))
	c.set("predict.predicted", float64(r.Predicted))
	c.set("predict.mispredicted", float64(r.Mispredicted))
	c.set("predict.useful_ratio", ratio(float64(r.Predicted), float64(r.Predicted+r.Mispredicted)))
	return nil
}

// ---- cache, trace, tlb, mem (replay of the captured traffic) ----

func (c *probeCtx) replayProbes() error {
	runs, refs := c.cap.runs, c.cap.refs
	if len(runs) == 0 {
		return fmt.Errorf("capture run recorded no fetch runs")
	}
	n := float64(len(runs))
	replay := func(s trace.Sink) float64 {
		t0 := time.Now()
		for _, r := range runs {
			s.Fetch(r)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}

	ic := cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 4})
	c.set("cache.fetch_ns_per_run", replay(ic))
	st := ic.Stats()
	c.set("cache.accesses", float64(st.Accesses))
	c.set("cache.misses", float64(st.Misses))
	c.set("cache.lines_per_run", float64(st.Accesses)/n)
	c.set("cache.fetch_dm_ns_per_run", replay(cache.New(cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1})))
	c.set("cache.wordstats_fetch_ns_per_run", replay(cache.New(cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4, WordStats: true})))

	const teeWidth = 16
	tee := make(trace.Tee, teeWidth)
	for i := range tee {
		tee[i] = trace.AppOnly(&trace.Counter{})
	}
	c.set("trace.tee_ns_per_run_per_sink", replay(tee)/teeWidth)

	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, r := range runs {
		w.Fetch(r)
	}
	if err := w.Close(); err != nil {
		return err
	}
	c.set("trace.encode_ns_per_run", float64(time.Since(t0).Nanoseconds())/n)
	c.set("trace.bytes_per_run", float64(buf.Len())/n)
	rd, err := trace.NewReader(&buf)
	if err != nil {
		return err
	}
	replayed := &trace.Counter{}
	t0 = time.Now()
	if err := rd.Replay(replayed, nil); err != nil {
		return err
	}
	c.set("trace.replay_ns_per_run", float64(time.Since(t0).Nanoseconds())/n)
	if replayed.Runs != uint64(len(runs)) {
		return fmt.Errorf("trace replay returned %d of %d runs", replayed.Runs, len(runs))
	}

	// One TLB and one L1I per CPU, as the machine's battery wires them.
	tlbs := make([]*tlb.TLB, trace.MaxCPUs)
	t0 = time.Now()
	for _, r := range runs {
		if tlbs[r.CPU] == nil {
			tlbs[r.CPU] = tlb.New(64)
		}
		tlbs[r.CPU].Fetch(r)
	}
	c.set("tlb.fetch_ns_per_run", float64(time.Since(t0).Nanoseconds())/n)
	var tlbMisses uint64
	cpus := 0
	for _, t := range tlbs {
		if t != nil {
			tlbMisses += t.Misses
			cpus++
		}
	}
	c.set("tlb.misses", float64(tlbMisses))

	type miss struct {
		line uint64
		cpu  int
	}
	var misses []miss
	l1is := make([]*cache.ICache, cpus)
	for i := range l1is {
		cpu := i
		l1is[i] = cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2})
		l1is[i].OnMiss(func(line uint64, _ bool) { misses = append(misses, miss{line, cpu}) })
	}
	for _, r := range runs {
		l1is[int(r.CPU)%cpus].Fetch(r)
	}
	sys := mem.NewSystem(mem.DefaultConfig(cpus))
	t0 = time.Now()
	for _, m := range misses {
		sys.FetchMiss(m.line, m.cpu)
	}
	c.set("mem.fetchmiss_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(misses))))
	t0 = time.Now()
	for _, r := range refs {
		r.CPU %= uint8(cpus)
		sys.Data(r)
	}
	c.set("mem.data_ns_per_ref", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(refs))))
	c.set("mem.l2_misses", float64(sys.Stats.L2Misses[mem.KindInstr]+sys.Stats.L2Misses[mem.KindData]))
	return nil
}

// ---- codegen ----

// autoEntries picks the auto functions the emitter probe walks: up to limit
// hot-library functions of the image, by name. Transaction entry models are
// driven by engine events, not walkable on their own, so the probe walks the
// helpers they dispatch into; cold-code filler is skipped.
func autoEntries(img *codegen.Image, limit int) []string {
	var names []string
	for name, fn := range img.Fns {
		if fn.Auto && fn.CloneOf == "" && !strings.HasPrefix(name, "cold") && !strings.HasPrefix(name, "kcold") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > limit {
		names = names[:limit]
	}
	return names
}

func (c *probeCtx) codegenProbe() error {
	cfg, err := c.p.subjectConfig(c.last, 1, 0)
	if err != nil {
		return err
	}
	var instr uint64
	var wall time.Duration
	calls := 0
	for _, side := range []struct {
		img *codegen.Image
		l   *program.Layout
	}{{cfg.AppImage, cfg.AppLayout}, {cfg.KernImage, cfg.KernLayout}} {
		names := autoEntries(side.img, 32)
		if len(names) == 0 {
			continue
		}
		em := codegen.NewEmitter(side.img, side.l, c.rc.seed)
		em.Sink = func(uint64, int32) {}
		n := max(c.rc.sz.probeN/len(names), 1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for _, name := range names {
				em.RunAuto(name)
			}
		}
		wall += time.Since(t0)
		instr += em.Instructions
		calls += n * len(names)
	}
	if calls == 0 {
		return fmt.Errorf("no auto functions to walk")
	}
	c.set("codegen.emit_ns_per_instr", float64(wall.Nanoseconds())/float64(instr))
	c.set("codegen.instr_per_call", float64(instr)/float64(calls))
	return nil
}

// ---- appmodel, kernel ----

func (c *probeCtx) imageProbes() error {
	o, extra := c.p.sourceOptions()
	t0 := time.Now()
	img, err := appmodel.Build(appmodel.Config{
		Seed: o.Seed, LibScale: o.LibScale, ColdWords: o.ColdWords,
		Workload: o.Workload, ExtraWorkloads: extra, FastPath: o.PredictFastPath,
	})
	if err != nil {
		return err
	}
	c.set("appmodel.build_ms", ms(time.Since(t0)))
	var words int64
	for _, b := range img.Prog.Blocks {
		words += int64(b.Body)
	}
	c.set("appmodel.image_words", float64(words))
	t0 = time.Now()
	if _, err := kernel.Build(kernel.Config{Seed: o.Seed + 1, ColdWords: o.KernColdWords}); err != nil {
		return err
	}
	c.set("kernel.build_ms", ms(time.Since(t0)))
	return nil
}

// ---- db, shard, predict (standalone, no simulated machine) ----

func (c *probeCtx) dbProbes() error {
	n := c.rc.sz.probeN
	rng := rand.New(rand.NewSource(c.rc.seed))
	eng := db.NewEngine(db.Config{BufferPoolPages: 1 << 16})
	s := eng.NewSession(1, probe.Nop{})

	bt := eng.CreateBTree("probe")
	keys := rng.Perm(n)
	var insErr error
	c.set("db.btree_insert_ns", nsPer(n, func(i int) {
		if err := bt.Insert(s, uint64(keys[i])*2, uint64(i)); err != nil {
			insErr = err
		}
	}))
	if insErr != nil {
		return insErr
	}
	found := 0
	c.set("db.btree_search_ns", nsPer(n, func(i int) {
		if _, ok := bt.Search(s, uint64(keys[n-1-i])*2); ok {
			found++
		}
	}))
	if found != n {
		return fmt.Errorf("btree found %d of %d inserted keys", found, n)
	}
	const span = 64
	scanned := 0
	scans := max(n/span, 1)
	t0 := time.Now()
	for i := 0; i < scans; i++ {
		lo := uint64(rng.Intn(max(n-span, 1))) * 2
		scanned += bt.ScanRange(s, lo, lo+2*span, func(uint64, uint64) bool { return true })
	}
	c.set("db.btree_scan_ns_per_key", ratio(float64(time.Since(t0).Nanoseconds()), float64(scanned)))

	const recBytes = 96
	fields := []db.FieldDef{{Name: "id", Off: 0, Width: 8}, {Name: "balance", Off: 8, Width: 8}, {Name: "filler", Off: 16, Width: recBytes - 16}}
	tb := eng.CreateTable("probe")
	if err := tb.EnsureFields(fields); err != nil {
		return err
	}
	rec := make([]byte, recBytes)
	rids := make([]db.RID, n)
	for i := range rids {
		rids[i] = tb.Insert(s, rec)
	}
	order := rng.Perm(n)
	c.set("db.heap_fetch_ns", nsPer(n, func(i int) { tb.Fetch(s, rids[order[i]]) }))
	c.set("db.fetch_fields_ns", nsPer(n, func(i int) { tb.FetchFields(s, rids[order[i]], "id", "balance") }))
	// Updates log before-images into the open transaction; commit in
	// batches so the undo list stays short, as a real transaction's does.
	const batch = 8
	inTxn := func(f func(i int)) func(i int) {
		return func(i int) {
			if i%batch == 0 {
				s.Begin()
			}
			f(i)
			if i%batch == batch-1 || i == n-1 {
				s.Commit()
			}
		}
	}
	c.set("db.heap_update_ns", nsPer(n, inTxn(func(i int) { tb.Update(s, rids[order[i]], rec) })))
	c.set("db.update_fields_ns", nsPer(n, inTxn(func(i int) { tb.UpdateFields(s, rids[order[i]], rec, "balance") })))

	s.Begin()
	c.set("db.lock_cycle_ns", nsPer(n, func(i int) {
		s.LockX(db.LockKey(1, uint64(order[i])))
		s.ReleaseLocks()
	}))
	s.Commit()
	c.set("db.commit_ns", nsPer(n, func(i int) {
		t := s.Begin()
		s.LogAppend(db.LogRec{Txn: t.ID, Kind: db.LogUpdate})
		s.Commit()
	}))
	c.set("db.prepare_commit_ns", nsPer(n, func(i int) {
		t := s.Begin()
		s.LogAppend(db.LogRec{Txn: t.ID, Kind: db.LogUpdate})
		s.Prepare()
		s.CommitPrepared()
	}))
	return nil
}

func (c *probeCtx) shardProbes() error {
	n := c.rc.sz.probeN
	engA := db.NewEngine(db.Config{BufferPoolPages: 64, Shard: 0})
	engB := db.NewEngine(db.Config{BufferPoolPages: 64, Shard: 1})
	sa, sb := engA.NewSession(1, probe.Nop{}), engB.NewSession(1, probe.Nop{})
	c.set("shard.commit2pc_ns", nsPer(n, func(i int) {
		sa.Begin()
		sb.Begin()
		sa.LockX(db.LockKey(1, uint64(i)))
		sb.LockX(db.LockKey(1, uint64(i)))
		shard.Commit2PC(sa, sb)
	}))
	if engA.Committed != uint64(n) || engB.Committed != uint64(n) {
		return fmt.Errorf("2PC committed %d/%d of %d", engA.Committed, engB.Committed, n)
	}
	m := shard.Map{Shards: 8}
	sink := 0
	c.set("shard.route_ns", nsPer(n, func(i int) {
		home := m.Of(uint64(i))
		shard.Route(probe.Nop{}, home, i%7 == 0)
		sink += home
	}))
	model := predict.New()
	classes := []string{"neworder", "payment", "read"}
	c.set("predict.observe_ns", nsPer(n, func(i int) {
		model.Observe(classes[i%len(classes)], i%8, i%7 == 0)
		if model.Local(classes[i%len(classes)], i%8) {
			sink++
		}
	}))
	_ = sink
	return nil
}

// ---- core, profile ----

func (c *probeCtx) coreProbes() error {
	s := c.p.session()
	prof, err := s.Profile()
	if err != nil {
		return err
	}
	prog := s.AppImage().Prog
	for _, combo := range []string{"all", "ipchain"} {
		pl, err := core.ComboPipeline(combo)
		if err != nil {
			return err
		}
		var l *program.Layout
		t0 := time.Now()
		if err := c.tr.do("Pipeline.Run."+combo, func() (err error) {
			l, _, err = pl.Run(prog, prof.Clone())
			return err
		}); err != nil {
			return err
		}
		c.set("core.pipeline_ms."+combo, ms(time.Since(t0)))
		if combo == "all" {
			c.set("core.layout_words.all", float64(l.TotalWords()))
		}
	}
	chains := make(map[program.ProcID][]core.Chain, len(prog.Procs))
	t0 := time.Now()
	for _, pr := range prog.Procs {
		chains[pr.ID] = core.ChainProc(prog, pr, prof)
	}
	c.set("core.chain_ms", ms(time.Since(t0)))
	units := core.BuildUnits(prog, prof, chains, core.SplitFine)
	t0 = time.Now()
	core.PettisHansen(prog, prof, units)
	c.set("core.porder_ms", ms(time.Since(t0)))

	blocks := 0
	for _, n := range prof.BlockCount {
		if n > 0 {
			blocks++
		}
	}
	c.set("profile.blocks", float64(blocks))
	c.set("profile.edges", float64(len(prof.EdgeCount)))
	return nil
}

// ---- pstore ----

func (c *probeCtx) pstoreProbes() error {
	dir, err := os.MkdirTemp(c.rc.tmpDir, "pstore-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o, extra := c.p.sourceOptions()
	// Two processes' worth of state: each pass opens the directory afresh
	// and builds a fresh source, so the second finds the profile on disk
	// and nowhere else.
	train := func() (time.Duration, error) {
		store, err := pstore.Open(dir)
		if err != nil {
			return 0, err
		}
		so := o
		so.ProfileStore = store
		src, err := expt.NewProfileSource(so, extra...)
		if err != nil {
			return 0, err
		}
		eo := c.p.session().Opt
		eo.ProfileStore = store
		s, err := expt.NewSessionFrom(src, eo)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = s.Train()
		return time.Since(t0), err
	}
	cold, err := train()
	if err != nil {
		return err
	}
	warm, err := train()
	if err != nil {
		return err
	}
	c.set("pstore.cold_train_ms", ms(cold))
	c.set("pstore.warm_load_ms", ms(warm))
	files, err := filepath.Glob(filepath.Join(dir, "*.pstore"))
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	if len(files) != 1 {
		return fmt.Errorf("profile store holds %d entries after one training run, want 1", len(files))
	}
	c.set("pstore.entry_bytes", float64(size))
	return nil
}

// ---- expt (figures-tpcb) ----

func (c *probeCtx) exptProbes() error {
	fp, ok := c.p.(*figuresPrep)
	if !ok {
		return nil
	}
	var serial float64
	for _, l := range figureLayouts {
		sec, _ := c.tr.dur("Session.Measure." + l)
		c.set("expt.measure_ms."+l, sec*1e3)
		serial += sec
	}
	o := fp.s.Opt
	s, err := expt.NewSessionFrom(fp.s.Source(), o)
	if err != nil {
		return err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if _, err := s.Measure("all", o.CPUs); err != nil {
		return err
	}
	measureWall := time.Since(t0)
	runtime.ReadMemStats(&after)
	c.set("expt.measure_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	const hits = 1000
	c.set("expt.memo_hit_us", nsPer(hits, func(int) { _, err = s.Measure("all", o.CPUs) })/1e3)
	if err != nil {
		return err
	}

	// The same simulation with no sinks attached: what is left is the
	// battery.
	cfg, err := fp.subjectConfig(nil, o.Transactions, o.WarmupTxns)
	if err != nil {
		return err
	}
	bare, err := timeMachine(cfg)
	if err != nil {
		return err
	}
	c.set("expt.battery_share", 1-(bare.newWall+bare.runWall+bare.checkWall).Seconds()/measureWall.Seconds())

	if s, err = expt.NewSessionFrom(fp.s.Source(), o); err != nil {
		return err
	}
	t0 = time.Now()
	if err := s.MeasureBatch(figureLayouts, o.CPUs, procs()); err != nil {
		return err
	}
	c.set("expt.batch_speedup", serial/time.Since(t0).Seconds())
	return nil
}

// ---- search (search-mix) ----

func (c *probeCtx) searchProbes() {
	r := c.last.search
	if r == nil {
		return
	}
	var gens []float64
	for g := 1; ; g++ {
		sec, n := c.tr.dur(fmt.Sprintf("search.generation.%d", g))
		if n == 0 {
			break
		}
		gens = append(gens, sec*1e3)
	}
	if len(gens) > 0 {
		// The first generation's span opens when search.Run is called, so it
		// carries image building, training and the baseline runs.
		c.set("search.gen1_ms", gens[0])
		rest := gens
		if len(gens) > 1 {
			rest = gens[1:]
		}
		_, med, _ := quartiles(rest)
		c.set("search.gen_ms_median", med)
	}
	wall, _ := c.tr.dur("search.Run")
	c.set("search.evals_per_s", ratio(float64(r.Executed), wall))
	c.set("search.requested", float64(r.Requested))
	c.set("search.unique_specs", float64(r.Unique))
	c.set("search.executed", float64(r.Executed))
	c.set("search.memo_hit_ratio", ratio(float64(r.Memo.Measure.Hits), float64(r.Memo.Measure.Hits+r.Memo.Measure.Misses)))
	c.set("search.winner_fitness", r.Winner.Fitness)
}
