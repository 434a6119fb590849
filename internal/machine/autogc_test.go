package machine_test

import (
	"strings"
	"testing"

	"codelayout/internal/machine"
	"codelayout/internal/tpcb"
)

// TestAutoGroupCommitTunesWindows: under a commit-heavy sharded mix,
// AutoGroupCommit must pick nonzero per-shard windows from the warmup
// arrival rate, batch more commits per flush than the immediate-flush
// configuration, and stay deterministic.
func TestAutoGroupCommitTunesWindows(t *testing.T) {
	wl := tpcb.NewScaled(tpcb.Scale{Branches: 48, TellersPerBranch: 4, AccountsPerBranch: 100})
	app, appL, kern, kernL := testImages(t, wl)
	run := func(auto machine.GroupCommit) (machine.Result, []uint64) {
		cfg := configFor(wl, app, appL, kern, kernL)
		cfg.Shards = 2
		cfg.CPUs = 4
		cfg.ProcsPerCPU = 16
		cfg.WarmupTxns = 40
		cfg.Transactions = 300
		cfg.AutoGroupCommit = auto
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
		return res, m.GroupCommitWindows()
	}
	immediate, immWin := run(machine.AutoGCOff)
	auto, autoWin := run(machine.AutoGCFlushCount)
	for i, w := range immWin {
		if w != 0 {
			t.Fatalf("immediate-flush run left window %d on shard %d", w, i)
		}
	}
	tuned := 0
	for _, w := range autoWin {
		if w > 0 {
			tuned++
		}
	}
	if tuned == 0 {
		t.Fatalf("auto-tuning picked no window on any shard: %v", autoWin)
	}
	if auto.LogFlushes >= immediate.LogFlushes {
		t.Fatalf("auto-tuned windows did not batch beyond immediate group commit: auto=%d immediate=%d",
			auto.LogFlushes, immediate.LogFlushes)
	}
	t.Logf("windows=%v; flushes immediate=%d auto=%d; blocked-on-log immediate=%d auto=%d",
		autoWin, immediate.LogFlushes, auto.LogFlushes,
		immediate.LogBlockedInstr, auto.LogBlockedInstr)

	// Determinism: a second auto run reproduces the result and the windows.
	auto2, autoWin2 := run(machine.AutoGCFlushCount)
	if auto != auto2 {
		t.Fatalf("auto-tuned runs diverge:\n%+v\n%+v", auto, auto2)
	}
	for i := range autoWin {
		if autoWin[i] != autoWin2[i] {
			t.Fatalf("tuned windows diverge: %v vs %v", autoWin, autoWin2)
		}
	}
}

// TestAutoGroupCommitNoWarmup: with no warmup there is nothing to observe;
// the run must still work with immediate-flush windows.
func TestAutoGroupCommitNoWarmup(t *testing.T) {
	cfg := testSetup(t, "tpcb")
	cfg.WarmupTxns = 0
	cfg.AutoGroupCommit = machine.AutoGCFlushCount
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	for i, w := range m.GroupCommitWindows() {
		if w != 0 {
			t.Fatalf("shard %d window %d without any warmup to observe", i, w)
		}
	}
}

// TestAutoGroupCommitValidation: New rejects a policy ParseGroupCommit
// rejects, naming the field.
func TestAutoGroupCommitValidation(t *testing.T) {
	base := testSetup(t, "tpcb")
	for _, bad := range []machine.GroupCommit{"window:", "window:-5", "window:x", "p95", "percommit:1", "Off"} {
		cfg := base
		cfg.AutoGroupCommit = bad
		if _, err := machine.New(cfg); err == nil || !strings.Contains(err.Error(), "AutoGroupCommit") {
			t.Errorf("AutoGroupCommit %q: want an error naming the field, got %v", bad, err)
		}
	}
}

// TestParseGroupCommit: every policy reads back from its own spelling, and
// the spellings of the immediate-flush policy all parse to the zero value.
func TestParseGroupCommit(t *testing.T) {
	for _, p := range []machine.GroupCommit{machine.AutoGCOff, "window:40000", "percommit", machine.AutoGCFlushCount, machine.AutoGCTargetP99} {
		if got, err := machine.ParseGroupCommit(p.String()); err != nil || got != p {
			t.Errorf("ParseGroupCommit(%q) = %q, %v; want %q", p.String(), got, err, p)
		}
	}
	for _, s := range []string{"", "off", "window:0", "window:00"} {
		if got, err := machine.ParseGroupCommit(s); err != nil || got != machine.AutoGCOff {
			t.Errorf("ParseGroupCommit(%q) = %q, %v; want off", s, got, err)
		}
	}
	if got, err := machine.ParseGroupCommit("window:060000"); err != nil || got != "window:60000" {
		t.Errorf("ParseGroupCommit(window:060000) = %q, %v; want window:60000", got, err)
	}
	// A window past the ceiling would let the flushes' windows wrap the clock.
	if got, err := machine.ParseGroupCommit("window:4294967296"); err != nil || got != "window:4294967296" {
		t.Errorf("ParseGroupCommit at the ceiling = %q, %v", got, err)
	}
	for _, s := range []string{"window:4294967297", "window:18446744073709551615"} {
		if _, err := machine.ParseGroupCommit(s); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Errorf("ParseGroupCommit(%q) error = %v, want the ceiling named", s, err)
		}
	}
}

// setGroupCommit applies a group-commit policy spelled the way -gc spells it.
func setGroupCommit(c *machine.Config, spec string) {
	c.AutoGroupCommit = machine.GroupCommit(spec)
}
