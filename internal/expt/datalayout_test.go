package expt

import (
	"reflect"
	"strings"
	"testing"
)

// measurePair builds a fresh source over QuickOptions TPC-B and measures the
// base code layout under both record layouts, reading what DataLayoutTable
// reads: the machine's results and Mem.
func measurePair(t *testing.T) (*Measure, *Measure) {
	t.Helper()
	o := QuickOptions()
	src, err := NewProfileSource(o)
	if err != nil {
		t.Fatalf("NewProfileSource: %v", err)
	}
	oi := o
	oi.RecordLayout = "interleaved"
	sI, err := NewSessionFrom(src, oi)
	if err != nil {
		t.Fatalf("interleaved session: %v", err)
	}
	og := o
	og.RecordLayout = "grouped"
	sG, err := NewSessionFrom(src, og)
	if err != nil {
		t.Fatalf("grouped session: %v", err)
	}
	mI, err := sI.Reading(SinkMem).Measure("base", o.CPUs)
	if err != nil {
		t.Fatalf("interleaved measure: %v", err)
	}
	mG, err := sG.Reading(SinkMem).Measure("base", o.CPUs)
	if err != nil {
		t.Fatalf("grouped measure: %v", err)
	}
	return mI, mG
}

// TestDataLayoutGroupedBeatsInterleaved pins the record-layout win: on
// TPC-B at the quick scale and fixed seed, grouping hot fields at the record
// head must strictly reduce L1D misses versus the interleaved baseline,
// with equal modeled data references and an identical instruction stream —
// and the whole comparison must be bit-identical across a fresh rebuild.
// Invariants are checked inside Session.measure, so a corrupting layout
// would fail the measure calls themselves.
func TestDataLayoutGroupedBeatsInterleaved(t *testing.T) {
	mI, mG := measurePair(t)

	// Both layouts issue the same modeled data references; the L1D counts
	// line touches, so grouping can only shed the line-crossing ones.
	if mG.Mem.L1DAccesses > mI.Mem.L1DAccesses {
		t.Errorf("grouped layout touches more L1D lines than interleaved: %d > %d",
			mG.Mem.L1DAccesses, mI.Mem.L1DAccesses)
	}
	if mI.Res.AppInstrs != mG.Res.AppInstrs || mI.Res.KernelInstrs != mG.Res.KernelInstrs {
		t.Errorf("instruction streams differ: interleaved app=%d kern=%d, grouped app=%d kern=%d",
			mI.Res.AppInstrs, mI.Res.KernelInstrs, mG.Res.AppInstrs, mG.Res.KernelInstrs)
	}
	if mG.Mem.L1DMisses >= mI.Mem.L1DMisses {
		t.Errorf("grouped layout must strictly reduce L1D misses: interleaved %d, grouped %d",
			mI.Mem.L1DMisses, mG.Mem.L1DMisses)
	}
	t.Logf("L1D misses: interleaved %d, grouped %d (%.1f%% fewer)",
		mI.Mem.L1DMisses, mG.Mem.L1DMisses,
		100*(1-float64(mG.Mem.L1DMisses)/float64(mI.Mem.L1DMisses)))

	// Rebuild everything from scratch: images, training, layouts, runs. The
	// comparison must reproduce bit for bit.
	mI2, mG2 := measurePair(t)
	if !reflect.DeepEqual(mI.Res, mI2.Res) || !reflect.DeepEqual(mI.Mem, mI2.Mem) {
		t.Error("interleaved measurement is not bit-identical across a fresh rebuild")
	}
	if !reflect.DeepEqual(mG.Res, mG2.Res) || !reflect.DeepEqual(mG.Mem, mG2.Mem) {
		t.Error("grouped measurement is not bit-identical across a fresh rebuild")
	}
}

// TestDataLayoutTableQuick exercises the report end to end (uniform regime
// only, to keep CI time down; the skewed regime runs in the layoutlab smoke).
func TestDataLayoutTableQuick(t *testing.T) {
	o := QuickOptions()
	tbl, err := DataLayoutTable(o, DataLayoutSpec{UniformOnly: true})
	if err != nil {
		t.Fatalf("DataLayoutTable: %v", err)
	}
	out := tbl.String()
	for _, want := range []string{"interleaved", "grouped", "L1D misses", "uniform"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestDataLayoutSpecValidation: out-of-range skew knobs fail fast instead of
// silently producing a nonsensical regime.
func TestDataLayoutSpecValidation(t *testing.T) {
	o := QuickOptions()
	if _, err := DataLayoutTable(o, DataLayoutSpec{ZipfTheta: 1.0}); err == nil {
		t.Error("ZipfTheta = 1.0 must be rejected")
	}
	if _, err := DataLayoutTable(o, DataLayoutSpec{HotAccountFrac: -0.1}); err == nil {
		t.Error("HotAccountFrac = -0.1 must be rejected")
	}
}

// TestSessionRejectsUnknownRecordLayout: the Options knob is validated at
// session construction, not at first measure.
func TestSessionRejectsUnknownRecordLayout(t *testing.T) {
	o := QuickOptions()
	o.RecordLayout = "diagonal"
	if _, err := NewSession(o); err == nil || !strings.Contains(err.Error(), "RecordLayout") {
		t.Errorf("RecordLayout=diagonal must fail session construction; got err=%v", err)
	}
}
