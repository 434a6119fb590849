package expt

import (
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
	"codelayout/internal/ycsb"
)

// TestStoreKeyIsTheOnDiskFormat pins the spec half of the key a training run
// is stored under (the other half is the image identity): the workload's
// spec, then the run's shape. Store directories on disk were written with
// it, so any change to it turns every one of them into a cold start. Training
// runs ungrouped, so the group-commit policy the session measures with is not
// part of the key; the workload's mix and scale are, since they shape the
// run.
func TestStoreKeyIsTheOnDiskFormat(t *testing.T) {
	const want = "tpcb:b10.t5.a400/cross15/hot0/s4/c2/p6/fptrue/dcpi256/seed1998/w40/x400"
	quickYCSB := func() *ycsb.Workload { return ycsb.New().QuickScale().(*ycsb.Workload) }
	for _, c := range []struct {
		name string
		edit func(*Options)
		same bool // the key must stay want
	}{
		{"quick tpcb", func(*Options) {}, true},
		{"flushcount group commit", func(o *Options) { o.AutoGroupCommit = machine.AutoGCFlushCount }, true},
		{"p99 group commit", func(o *Options) { o.AutoGroupCommit = machine.AutoGCTargetP99 }, true},
		{"paper-scale tpcb", func(o *Options) { o.Workload = tpcb.New() }, false},
		{"hot accounts", func(o *Options) { o.Workload.(*tpcb.Workload).HotAccountFrac = 0.2 }, false},
		{"cross-shard share", func(o *Options) { o.Workload.(*tpcb.Workload).CrossShardPct = 30 }, false},
		{"fast path off", func(o *Options) { o.PredictFastPath = false }, false},
		{"procs per CPU", func(o *Options) { o.ProcsPerCPU = 8 }, false},
	} {
		o := QuickOptions()
		o.Shards, o.PredictFastPath = 4, true
		c.edit(&o)
		ps := &ProfileSource{opt: o}
		if got := ps.trainSpec(o.resolveTrain()); (got == want) != c.same {
			t.Errorf("%s: store key spec %q; equal to %q: %t, want %t", c.name, got, want, got == want, c.same)
		}
	}

	// The ycsb read share shapes the request stream, so it keys a separate
	// run; the pinned spelling covers every ycsb knob.
	o := QuickOptions()
	o.Workload = quickYCSB()
	ps := &ProfileSource{opt: o}
	const wantYCSB = "ycsb:r4000/read95/zipf0/cross0/shift0to0/s1/c2/p6/fpfalse/dcpi256/seed1998/w40/x400"
	if got := ps.trainSpec(o.resolveTrain()); got != wantYCSB {
		t.Errorf("ycsb store key spec %q, want %q", got, wantYCSB)
	}
	mix := quickYCSB()
	mix.ReadPct = 50
	o.Workload = mix
	if got := ps.trainSpec(o.resolveTrain()); got == wantYCSB {
		t.Errorf("a 50%% read share keys the 95%% mix's run %q", got)
	}
}
