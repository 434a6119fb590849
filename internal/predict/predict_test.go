package predict_test

import (
	"testing"

	"codelayout/internal/predict"
	"codelayout/internal/probe"
)

func TestColdCellsStayDistributed(t *testing.T) {
	m := predict.New()
	if m.Local("tpcb", 0) {
		t.Fatal("empty model must not predict local")
	}
	m.Observe("tpcb", 0, false)
	m.Observe("tpcb", 0, false)
	if m.Local("tpcb", 0) {
		t.Fatalf("2 observations < MinObs %d must not predict local", m.MinObs)
	}
	if m.Local("tpcb", 1) {
		t.Fatal("other shards' cells must stay cold")
	}
	if m.Local("ycsb", 0) {
		t.Fatal("other classes' cells must stay cold")
	}
}

func TestFrequencyThreshold(t *testing.T) {
	m := predict.New()
	for i := 0; i < 20; i++ {
		m.Observe("tpcb", 2, false)
	}
	if !m.Local("tpcb", 2) {
		t.Fatal("20/20 local must predict local")
	}
	// Pull P(local) below the 0.9 threshold, interleaved so the Markov
	// transition rows stay mixed too: the marginal becomes 30 local of 35
	// (0.86), and the row after a local outcome, which decides because the
	// last outcome is local, 24 local of 29 (0.83).
	for i := 0; i < 5; i++ {
		m.Observe("tpcb", 2, true)
		for j := 0; j < 2; j++ {
			m.Observe("tpcb", 2, false)
		}
	}
	if got := m.Observations("tpcb", 2); got != 35 {
		t.Fatalf("Observations = %d, want 35", got)
	}
	if m.Local("tpcb", 2) {
		t.Fatal("30/35 local, 24/29 after a local, must not predict local")
	}
}

func TestMarkovRowOverridesMarginal(t *testing.T) {
	// A strict local,local,remote cycle: marginally P(local)=2/3 (below
	// threshold), but after a remote the next outcome is always local.
	m := predict.New()
	for i := 0; i < 12; i++ {
		m.Observe("order", 1, i%3 == 2)
	}
	// Last observation was remote (i=11, 11%3==2): trans[remote] row is
	// all-local, so the Markov refinement should predict local.
	if !m.Local("order", 1) {
		t.Fatal("after remote in a LLR cycle the Markov row must predict local")
	}
	m.Observe("order", 1, false)
	m.Observe("order", 1, false)
	// Now last=local and trans[local] = {local: ~50%, remote: ~50%}: the row
	// has mass and is well below threshold.
	if m.Local("order", 1) {
		t.Fatal("after local in a LLR cycle the Markov row must not predict local")
	}
}

func TestDeterministicReplay(t *testing.T) {
	outcomes := []bool{false, false, false, true, false, true, true, false, false, false}
	run := func() []bool {
		m := predict.New()
		var preds []bool
		for _, r := range outcomes {
			preds = append(preds, m.Local("w", 0))
			m.Observe("w", 0, r)
		}
		return preds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs across identical replays", i)
		}
	}
}

func TestZeroValueModelIsUsable(t *testing.T) {
	// A zero-value Model (MinObs 0, Threshold 0) must not crash; Observe
	// lazily allocates the cell map.
	var m predict.Model
	m.Observe("w", 0, false)
	if !m.Local("w", 0) {
		t.Fatal("zero thresholds with a local observation should predict local")
	}
}

func TestEmitSafeWithoutProbe(t *testing.T) {
	// The probe helpers must be safe under the no-op probe (load paths).
	predict.Check(probe.Nop{}, 3, true)
	predict.Check(probe.Nop{}, 0, false)
	predict.Train(probe.Nop{}, 1, true)
	predict.Train(probe.Nop{}, 1, false)
}
