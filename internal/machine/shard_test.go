package machine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"codelayout/internal/cache"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/tpcb"
	"codelayout/internal/trace"
	"codelayout/internal/workload"
)

// shardWorkload returns a small instance of the named workload with enough
// partition-key values to spread across four shards.
func shardWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	switch name {
	case "tpcb":
		return tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 100})
	case "ordere":
		return ordere.NewScaled(ordere.Scale{Warehouses: 6, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
	}
	t.Fatalf("unknown workload %q", name)
	return nil
}

// TestShardedEndToEnd runs both workloads across 2 and 4 shards: the run
// must commit every transaction, produce cross-shard (2PC) traffic, and
// pass the cross-shard invariant audit over the union of shards.
func TestShardedEndToEnd(t *testing.T) {
	for _, name := range testWorkloads {
		wl := shardWorkload(t, name)
		app, appL, kern, kernL := testImages(t, wl)
		for _, shards := range []int{2, 4} {
			shards := shards
			t.Run(fmt.Sprintf("%s-shards%d", name, shards), func(t *testing.T) {
				cfg := configFor(wl, app, appL, kern, kernL)
				cfg.Shards = shards
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 6
				cfg.Transactions = 120
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Committed != 120 {
					t.Fatalf("committed = %d", res.Committed)
				}
				if res.CrossShard == 0 {
					t.Fatal("no cross-shard transactions at the default cross-shard fraction")
				}
				if res.LogFlushes == 0 {
					t.Fatal("no log flushes")
				}
				if len(m.Engines()) != shards {
					t.Fatalf("engines = %d, want %d", len(m.Engines()), shards)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("cross-shard invariants: %v", err)
				}
				t.Logf("shards=%d: cross-shard=%d aborts=%d flushes=%d grouped=%d",
					shards, res.CrossShard, res.Aborted, res.LogFlushes, res.GroupedCommits)
			})
		}
	}
}

// TestShardedDeterminism: the same seed must produce bit-identical results
// and cache statistics at every shard count, under GOMAXPROCS 1 and 4 alike.
func TestShardedDeterminism(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			wl := shardWorkload(t, name)
			app, appL, kern, kernL := testImages(t, wl)
			run := func(procs int) (machine.Result, *cache.Stats) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := configFor(shardWorkload(t, name), app, appL, kern, kernL)
				cfg.Shards = 4
				cfg.CPUs = 2
				cfg.ProcsPerCPU = 6
				cfg.Transactions = 100
				ic := cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 2})
				cfg.Sinks = []trace.Sink{ic}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, ic.Stats()
			}
			r1, s1 := run(1)
			r2, s2 := run(4)
			if r1 != r2 {
				t.Fatalf("sharded results differ:\n%+v\n%+v", r1, r2)
			}
			if s1.Misses != s2.Misses || s1.Accesses != s2.Accesses {
				t.Fatalf("cache stats differ: %d/%d vs %d/%d", s1.Misses, s1.Accesses, s2.Misses, s2.Accesses)
			}
		})
	}
}

// TestShardsOneMatchesUnsharded: an explicit Shards=1 must be byte-identical
// to the default (unset) single-engine configuration — the pre-refactor
// path. The shard layer must add nothing at one shard: no router probes, no
// 2PC, the same instruction stream.
func TestShardsOneMatchesUnsharded(t *testing.T) {
	for _, name := range testWorkloads {
		t.Run(name, func(t *testing.T) {
			wl := smallWorkload(t, name)
			app, appL, kern, kernL := testImages(t, wl)
			run := func(shards int) (machine.Result, *cache.Stats) {
				cfg := configFor(smallWorkload(t, name), app, appL, kern, kernL)
				cfg.Shards = shards
				ic := cache.New(cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 2})
				cfg.Sinks = []trace.Sink{ic}
				m, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, ic.Stats()
			}
			rDefault, sDefault := run(0)
			rOne, sOne := run(1)
			if rDefault != rOne {
				t.Fatalf("Shards=1 diverges from the unsharded default:\n%+v\n%+v", rDefault, rOne)
			}
			if sDefault.Misses != sOne.Misses || sDefault.Accesses != sOne.Accesses {
				t.Fatalf("cache stats diverge: %d/%d vs %d/%d",
					sDefault.Misses, sDefault.Accesses, sOne.Misses, sOne.Accesses)
			}
			if rOne.CrossShard != 0 {
				t.Fatalf("cross-shard transactions on a single shard: %d", rOne.CrossShard)
			}
		})
	}
}

// TestDeadlockVictimAborts drives a contended cross-shard TPC-B mix whose
// opposing distributed transactions form genuine waits-for cycles spanning
// shards. The global deadlock detector must abort victims (exercising the
// txn_abort models under the machine), every retried transaction must still
// commit, and conservation must hold across the union of shards.
func TestDeadlockVictimAborts(t *testing.T) {
	// A roughly even local/remote mix maximizes cycle opportunities: local
	// transactions lock account-first while cross-shard ones lock their
	// home teller/branch first and the remote account last, so opposing
	// flows invert the order. (An all-remote mix is order-consistent and
	// deadlock-free.)
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 6, TellersPerBranch: 3, AccountsPerBranch: 40})
	wl.CrossShardPct = 40
	app, appL, kern, kernL := testImages(t, wl)
	run := func() machine.Result {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Shards = 2
		cfg.CPUs = 2
		cfg.ProcsPerCPU = 16
		cfg.WarmupTxns = 40
		cfg.Transactions = 800
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("invariants after deadlock aborts: %v", err)
		}
		return res
	}
	r1 := run()
	if r1.Aborted == 0 || r1.Deadlocks == 0 {
		t.Fatalf("contended sharded mix produced no deadlock aborts: %+v", r1)
	}
	if r1.Committed != 800 {
		t.Fatalf("committed = %d; victims must retry to completion", r1.Committed)
	}
	// Victim selection and retry must be deterministic too.
	r2 := run()
	if r1 != r2 {
		t.Fatalf("deadlock-heavy runs diverge:\n%+v\n%+v", r1, r2)
	}
	t.Logf("aborts=%d deadlocks=%d cross-shard=%d conflicts=%d",
		r1.Aborted, r1.Deadlocks, r1.CrossShard, r1.LockConflicts)
}

// TestGroupCommitReducesLogBlocking pins the group-commit speed lever: under
// a commit-heavy mix at a fixed shard count, group commit must issue fewer
// physical log writes and spend less instruction-time blocked on the log
// than per-commit flushing; a batching window must also stay ahead of the
// per-commit baseline.
func TestGroupCommitReducesLogBlocking(t *testing.T) {
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 48, TellersPerBranch: 4, AccountsPerBranch: 100})
	app, appL, kern, kernL := testImages(t, wl)
	run := func(gc machine.GroupCommit) machine.Result {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Shards = 2
		cfg.CPUs = 4
		cfg.ProcsPerCPU = 16
		cfg.WarmupTxns = 40
		cfg.Transactions = 300
		cfg.AutoGroupCommit = gc
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	perCommit := run("percommit")
	group := run(machine.AutoGCOff)
	windowed := run("window:40000")
	if group.LogFlushes >= perCommit.LogFlushes {
		t.Fatalf("group commit did not reduce flushes: group=%d percommit=%d",
			group.LogFlushes, perCommit.LogFlushes)
	}
	if group.LogBlockedInstr >= perCommit.LogBlockedInstr {
		t.Fatalf("group commit did not reduce blocked-on-log time: group=%d percommit=%d",
			group.LogBlockedInstr, perCommit.LogBlockedInstr)
	}
	if windowed.LogBlockedInstr >= perCommit.LogBlockedInstr {
		t.Fatalf("windowed group commit fell behind per-commit flushing: windowed=%d percommit=%d",
			windowed.LogBlockedInstr, perCommit.LogBlockedInstr)
	}
	if windowed.LogFlushes >= group.LogFlushes {
		t.Fatalf("window did not batch beyond immediate group commit: windowed=%d group=%d",
			windowed.LogFlushes, group.LogFlushes)
	}
	t.Logf("flushes: percommit=%d group=%d windowed=%d; blocked instr: percommit=%d group=%d windowed=%d",
		perCommit.LogFlushes, group.LogFlushes, windowed.LogFlushes,
		perCommit.LogBlockedInstr, group.LogBlockedInstr, windowed.LogBlockedInstr)
}

// TestConfigValidation: misconfigurations must fail fast in New with clear
// errors, not panic mid-run.
func TestConfigValidation(t *testing.T) {
	wl := smallWorkload(t, "tpcb")
	app, appL, kern, kernL := testImages(t, wl)
	base := configFor(wl, app, appL, kern, kernL)
	cases := []struct {
		name string
		mut  func(*machine.Config)
		want string
	}{
		{"nil workload", func(c *machine.Config) { c.Workload = nil }, "Workload is required"},
		{"missing images", func(c *machine.Config) { c.AppImage = nil }, "images and layouts"},
		// A fused layout beside the unspecialized image (Session.AppImage
		// instead of AppImageFor) used to index-panic in a proc goroutine.
		{"app layout of another program", func(c *machine.Config) { c.AppImage = app.Specialize() }, "AppLayout lays out a different program"},
		{"kernel layout of another program", func(c *machine.Config) { c.KernLayout = appL }, "KernLayout lays out a different program"},
		{"negative cpus", func(c *machine.Config) { c.CPUs = -1 }, "CPUs"},
		// trace.FetchRun.CPU is a uint8 sized for MaxCPUs; a 65-CPU run
		// used to die mid-run in a process panic.
		{"too many cpus", func(c *machine.Config) { c.CPUs = trace.MaxCPUs + 1 }, "CPUs = 65 exceeds the maximum of 64"},
		{"negative procs", func(c *machine.Config) { c.ProcsPerCPU = -2 }, "ProcsPerCPU"},
		{"negative shards", func(c *machine.Config) { c.Shards = -1 }, "Shards"},
		{"too many shards", func(c *machine.Config) { c.Shards = machine.MaxShards + 1 }, "exceeds the maximum"},
		{"negative transactions", func(c *machine.Config) { c.Transactions = -5 }, "Transactions"},
		{"negative warmup", func(c *machine.Config) { c.WarmupTxns = -5 }, "WarmupTxns"},
		// Past its ceiling a delay could wrap the clocks it is added to, and
		// at 2^63 the tuners' widest window, twice the log-write delay, wraps.
		{"timer interval past its ceiling", func(c *machine.Config) { c.TimerIntervalInstr = machine.MaxDelayInstr + 1 }, "TimerIntervalInstr = 4294967297 exceeds the maximum of 4294967296"},
		{"log-write delay past its ceiling", func(c *machine.Config) { c.LogWriteDelayInstr = machine.MaxDelayInstr + 1 }, "LogWriteDelayInstr = 4294967297 exceeds"},
		{"log-write delay that doubles past 2^64", func(c *machine.Config) { c.LogWriteDelayInstr = 1 << 63 }, "LogWriteDelayInstr"},
		{"pread delay past its ceiling", func(c *machine.Config) { c.PreadDelayInstr = machine.MaxDelayInstr + 1 }, "PreadDelayInstr = 4294967297 exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := machine.New(cfg)
			if err == nil {
				t.Fatalf("config accepted: %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The base configuration itself must stay valid.
	if _, err := machine.New(base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	// Each delay is legal at its ceiling, and so is the near-silent timer
	// the scheduler tests use.
	atCeiling := base
	atCeiling.TimerIntervalInstr, atCeiling.LogWriteDelayInstr, atCeiling.PreadDelayInstr =
		machine.MaxDelayInstr, machine.MaxDelayInstr, machine.MaxDelayInstr
	if err := atCeiling.Validate(); err != nil {
		t.Fatalf("delays at their ceiling rejected: %v", err)
	}
	quiet := base
	quiet.TimerIntervalInstr = 100_000_000
	if err := quiet.Validate(); err != nil {
		t.Fatalf("TimerIntervalInstr = 100_000_000 rejected: %v", err)
	}
}
