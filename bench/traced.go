package main

// runTraced produces the per-layer metrics: one set-up, the warm-up, one
// repetition without spans and one with, then the probes, all under one root
// span. End-to-end numbers never come from here.
func runTraced(rc runConfig) (*runResult, error) {
	tr := newTracer(rc.workload.name)
	root := tr.start("workload." + rc.workload.name)

	var p prepared
	if err := tr.do("setup", func() (err error) {
		p, _, err = coldSetups(rc, 1, 0, tr)
		return err
	}); err != nil {
		return nil, err
	}
	g := &gate{}
	res := &runResult{Workload: rc.workload.name, Seed: rc.seed, Trace: true, Metrics: make(map[string]value)}
	for _, d := range perLayer {
		res.Metrics[d.Name] = single(0, d.Unit)
	}
	// sim runs one step that simulates; a failure is reported through the
	// gate, and the probes, which need the step's outcome, are skipped.
	sim := func(name string, f func() error) bool {
		err := tr.do(name, f)
		if err != nil {
			g.simFailed(p, name, err)
		}
		return err == nil
	}
	report := func() *runResult {
		g.report(res)
		res.Metrics["bench.failed_op_share"] = single(float64(g.failed)/float64(g.attempted), "ratio")
		return res
	}
	var warm *repOutcome
	if !sim("warmup", func() (err error) {
		warm, err = p.warmup(nil)
		return err
	}) {
		return report(), nil
	}
	if warm != nil {
		g.outcome(warm)
	}

	// The two repetitions differ only in whether spans are recorded, so
	// their ratio is what tracing costs.
	var plain, traced timedRep
	if !sim("rep.untraced", func() (err error) {
		plain, err = timeRep(p, nil)
		return err
	}) || !sim("rep.traced", func() (err error) {
		traced, err = timeRep(p, tr)
		return err
	}) {
		return report(), nil
	}
	last := traced.out
	g.outcome(plain.out)
	g.outcome(last)
	g.attempted++
	if digest(plain.out) != digest(last) {
		g.fail(1, "the traced repetition produced different simulated results than the untraced one")
	}
	if !sim("finish", func() error { return finishOutcome(p, last, warm, g, tr) }) {
		return report(), nil
	}

	c := &probeCtx{rc: rc, p: p, last: last, tr: tr, out: res.Metrics}
	c.set("bench.trace_overhead_share", traced.wall.Seconds()/plain.wall.Seconds()-1)
	sec, _ := tr.dur("Session.Train")
	c.set("profile.train_ms", sec*1e3)
	if sec, n := tr.dur("Session.Layout.fusion"); n > 0 {
		c.set("expt.layout_ms.fusion", sec*1e3)
	}
	for _, pr := range []struct {
		layer string
		f     func() error
	}{
		{"machine", c.machineProbes},
		{"replay", c.replayProbes},
		{"codegen", c.codegenProbe},
		{"images", c.imageProbes},
		{"db", c.dbProbes},
		{"shard", c.shardProbes},
		{"core", c.coreProbes},
		{"pstore", c.pstoreProbes},
		{"expt", c.exptProbes},
	} {
		if err := c.probe(pr.layer, pr.f); err != nil {
			return nil, err
		}
	}
	c.searchProbes()

	tr.end(root)
	spans, err := tr.finish()
	if err != nil {
		return nil, err
	}
	c.set("bench.span_self_cover", selfCover(spans))
	res.Checksum, res.spans = checksum(digest(warm), digest(last)), spans
	return report(), nil
}
