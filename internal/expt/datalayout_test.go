package expt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/workload"
)

// measurePair builds a fresh session over QuickOptions TPC-B and measures the
// base code layout under both record layouts, as DataLayoutTable does.
func measurePair(t *testing.T) (*Measure, *Measure) {
	t.Helper()
	o := QuickOptions()
	s, err := NewSession(o)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	ms, err := measureRecordLayouts(s, o.CPUs)
	if err != nil {
		t.Fatalf("measureRecordLayouts: %v", err)
	}
	return ms[0], ms[1]
}

// TestDataLayoutGroupedBeatsInterleaved pins the record-layout win: on
// TPC-B at the quick scale and fixed seed, grouping hot fields at the record
// head must strictly reduce L1D misses versus the interleaved baseline,
// with equal modeled data references and an identical instruction stream —
// and the whole comparison must be bit-identical across a fresh rebuild.
// Invariants are checked inside MeasureConfig, so a corrupting layout would
// fail the measure calls themselves.
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

// randomSchema builds a schema with 1..12 fields of width 1..32, a random
// subset statically hot.
func randomSchema(r *rand.Rand, table string) workload.TableSchema {
	n := 1 + r.Intn(12)
	ts := workload.TableSchema{Table: table}
	for i := 0; i < n; i++ {
		f := workload.FieldSchema{
			Name:  fmt.Sprintf("f%02d", i),
			Width: 1 + r.Intn(32),
		}
		if r.Intn(3) == 0 {
			f.ReadBy = []string{"txn"}
		}
		if r.Intn(4) == 0 {
			f.WrittenBy = []string{"txn"}
		}
		ts.Fields = append(ts.Fields, f)
	}
	return ts
}

// randomCounts builds a tally covering a random subset of the schema's
// fields (empty maps exercise the static-hint fallback).
func randomCounts(r *rand.Rand, ts workload.TableSchema) map[string]db.FieldAccess {
	counts := make(map[string]db.FieldAccess)
	for _, f := range ts.Fields {
		if r.Intn(2) == 0 {
			counts[f.Name] = db.FieldAccess{Reads: uint64(r.Intn(1000)), Writes: uint64(r.Intn(100))}
		}
	}
	if r.Intn(5) == 0 {
		return nil
	}
	return counts
}

// TestDecideProperties: for random schemas and tallies, the grouped layout
// is always a valid permutation of the interleaved baseline — same field
// set, same widths, no overlap, contiguous from offset 0, record width
// preserved — in the decision's order, and is deterministic for a given
// input.
func TestDecideProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		ts := randomSchema(r, fmt.Sprintf("t%d", iter))
		if err := ts.Validate(); err != nil {
			t.Fatalf("iter %d: random schema invalid: %v", iter, err)
		}
		if err := checkGrouped(ts, randomCounts(r, ts)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// FuzzDecideGrouped explores what TestDecideProperties samples: any schema
// of up to 12 fields, with or without a measured tally, groups into a valid
// permutation in the decision's order. Each field takes four bytes: width,
// static hints, reads and writes.
func FuzzDecideGrouped(f *testing.F) {
	f.Add([]byte{0, 7, 0, 0, 0})
	f.Add([]byte{1, 7, 1, 10, 0, 31, 2, 10, 0, 3, 0, 0, 5})
	f.Add([]byte{1, 8, 0, 3, 1, 8, 0, 3, 1, 8, 0, 0, 0, 8, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		measured := data[0]&1 == 1
		ts := workload.TableSchema{Table: "t"}
		counts := make(map[string]db.FieldAccess)
		for i, b := 0, data[1:]; len(b) >= 4 && i < 12; i, b = i+1, b[4:] {
			fs := workload.FieldSchema{Name: fmt.Sprintf("f%02d", i), Width: 1 + int(b[0]%32)}
			if b[1]&1 != 0 {
				fs.ReadBy = []string{"txn"}
			}
			if b[1]&2 != 0 {
				fs.WrittenBy = []string{"txn"}
			}
			ts.Fields = append(ts.Fields, fs)
			if measured && b[2]|b[3] != 0 {
				counts[fs.Name] = db.FieldAccess{Reads: uint64(b[2]), Writes: uint64(b[3])}
			}
		}
		if err := checkGrouped(ts, counts); err != nil {
			t.Fatal(err)
		}
	})
}

// checkGrouped decides ts's grouped layout and checks it field by field: a
// contiguous permutation of the schema's fields at their widths, the same on
// a second call, and in the decision's order — measured-hot fields (or, with
// no tally, statically hot ones) ahead of the rest, hotter ahead of cooler,
// and declared order among equals.
func checkGrouped(ts workload.TableSchema, counts map[string]db.FieldAccess) error {
	defs := decideGrouped(ts, counts)
	if err := db.ValidateFieldDefs(ts.Table, defs); err != nil {
		return fmt.Errorf("grouped layout invalid: %v", err)
	}
	if len(defs) != len(ts.Fields) {
		return fmt.Errorf("%d fields in, %d out", len(ts.Fields), len(defs))
	}
	index := make(map[string]int, len(ts.Fields))
	for i, f := range ts.Fields {
		index[f.Name] = i
	}
	// rank is a field's place in the decision's order: hot before cold, then
	// by descending heat, then by declared index.
	type rank struct {
		hot  bool
		heat uint64
		idx  int
	}
	rankOf := func(i int) rank {
		f := ts.Fields[i]
		if len(counts) == 0 {
			return rank{hot: f.Hot(), idx: i}
		}
		heat := counts[f.Name].Total()
		return rank{hot: heat > 0, heat: heat, idx: i}
	}
	total := 0
	var prev *rank
	for _, d := range defs {
		i, ok := index[d.Name]
		if !ok {
			return fmt.Errorf("layout invented field %q", d.Name)
		}
		if d.Width != ts.Fields[i].Width {
			return fmt.Errorf("field %q width %d != schema %d", d.Name, d.Width, ts.Fields[i].Width)
		}
		if d.Off != total {
			return fmt.Errorf("field %q at %d, want contiguous %d", d.Name, d.Off, total)
		}
		total += d.Width
		r := rankOf(i)
		if p := prev; p != nil {
			after := p.hot != r.hot && r.hot ||
				p.hot == r.hot && (p.heat < r.heat || p.heat == r.heat && p.idx > r.idx)
			if after {
				return fmt.Errorf("field %q (%+v) placed after %q (%+v)", d.Name, r, ts.Fields[p.idx].Name, *p)
			}
		}
		prev = &r
	}
	if total != ts.Width() {
		return fmt.Errorf("record width %d != schema width %d", total, ts.Width())
	}
	if !reflect.DeepEqual(defs, decideGrouped(ts, counts)) {
		return fmt.Errorf("decideGrouped is not deterministic")
	}
	return nil
}

// TestDecideHotFieldsLead: measured-hot fields come first in descending
// access order; untouched fields keep declared order behind them.
func TestDecideHotFieldsLead(t *testing.T) {
	ts := workload.TableSchema{Table: "t", Fields: []workload.FieldSchema{
		{Name: "a", Width: 8}, {Name: "b", Width: 8},
		{Name: "c", Width: 8}, {Name: "d", Width: 8},
	}}
	defs := decideGrouped(ts, map[string]db.FieldAccess{
		"c": {Reads: 100},
		"a": {Reads: 10},
	})
	order := []string{defs[0].Name, defs[1].Name, defs[2].Name, defs[3].Name}
	want := []string{"c", "a", "b", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestGroupedRoundTripOnPages: records encoded at grouped offsets and stored
// on real slotted pages decode every field back exactly, for random schemas
// and field values. This is the end-to-end fidelity contract: regrouping
// moves bytes, never loses them.
func TestGroupedRoundTripOnPages(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		ts := randomSchema(r, fmt.Sprintf("rt%d", iter))
		defs := decideGrouped(ts, randomCounts(r, ts))

		eng := db.NewEngine(db.Config{BufferPoolPages: 64})
		s := eng.NewSession(1, nil)
		tb := eng.CreateTable(ts.Table)
		if err := tb.EnsureFields(defs); err != nil {
			t.Fatalf("iter %d: EnsureFields: %v", iter, err)
		}

		// Encode 20 records at the grouped offsets, remember expected bytes.
		type fieldVal struct {
			name string
			val  []byte
		}
		var rids []db.RID
		var want [][]fieldVal
		for rec := 0; rec < 20; rec++ {
			row := make([]byte, ts.Width())
			var vals []fieldVal
			for _, d := range defs {
				v := make([]byte, d.Width)
				r.Read(v)
				copy(row[tb.FieldOffset(d.Name):], v)
				vals = append(vals, fieldVal{d.Name, v})
			}
			s.Begin()
			rids = append(rids, tb.Insert(s, row))
			s.Commit()
			want = append(want, vals)
		}
		for i, rid := range rids {
			s.Begin()
			row := tb.Fetch(s, rid)
			s.Commit()
			if len(row) != ts.Width() {
				t.Fatalf("iter %d: record width %d, want %d", iter, len(row), ts.Width())
			}
			for _, fv := range want[i] {
				off := tb.FieldOffset(fv.name)
				got := row[off : off+len(fv.val)]
				if !reflect.DeepEqual(got, fv.val) {
					t.Fatalf("iter %d rec %d field %s: got %x want %x", iter, i, fv.name, got, fv.val)
				}
			}
		}
	}
}

// TestGroupedDefsEndToEnd: the workload-level entry point groups every
// declared table and the hint path installs the layout so a fresh engine's
// offsets differ from the declared order where the profile says so.
func TestGroupedDefsEndToEnd(t *testing.T) {
	ts := workload.TableSchema{Table: "acct", Fields: []workload.FieldSchema{
		{Name: "id", Width: 8},
		{Name: "pad", Width: 64},
		{Name: "bal", Width: 8, ReadBy: []string{"txn"}, WrittenBy: []string{"txn"}},
	}}
	wl := &schemaWorkload{schemas: []workload.TableSchema{ts}}
	defs, err := groupedDefs(wl, map[string]map[string]db.FieldAccess{"acct": {"bal": {Reads: 50, Writes: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	eng := db.NewEngine(db.Config{BufferPoolPages: 16})
	if err := eng.SetFieldHints(defs); err != nil {
		t.Fatal(err)
	}
	tb := eng.CreateTable("acct")
	if got := tb.FieldOffset("bal"); got != 0 {
		t.Fatalf("hot field bal at offset %d, want 0", got)
	}
	// The loader's interleaved EnsureFields must yield to the installed hint.
	if err := tb.EnsureFields(ts.Interleaved()); err != nil {
		t.Fatalf("EnsureFields against hint: %v", err)
	}
	if got := tb.FieldOffset("bal"); got != 0 {
		t.Fatalf("hint lost to loader default: bal at %d", got)
	}
	// A record written through the offsets reads back through them.
	s := eng.NewSession(1, nil)
	row := make([]byte, ts.Width())
	binary.LittleEndian.PutUint64(row[tb.FieldOffset("bal"):], 777)
	s.Begin()
	rid := tb.Insert(s, row)
	got := tb.Fetch(s, rid)
	s.Commit()
	if v := binary.LittleEndian.Uint64(got[tb.FieldOffset("bal"):]); v != 777 {
		t.Fatalf("bal = %d, want 777", v)
	}
}

// schemaWorkload is a minimal workload.Workload + RecordSchemas for tests.
type schemaWorkload struct {
	schemas []workload.TableSchema
}

func (w *schemaWorkload) Name() string                                 { return "schemawl" }
func (w *schemaWorkload) QuickScale() workload.Workload                { return w }
func (w *schemaWorkload) DataPages() int                               { return 1 }
func (w *schemaWorkload) Partitioning() workload.Partitioning          { return workload.Partitioning{} }
func (w *schemaWorkload) Load([]*db.Engine) (workload.Instance, error) { return nil, nil }
func (w *schemaWorkload) RecordSchemas() []workload.TableSchema        { return w.schemas }
func (w *schemaWorkload) Models(*workload.ModelEnv) []codegen.FnSpec   { return nil }

// noSchemaWorkload implements workload.Workload but not RecordSchemas.
type noSchemaWorkload struct{}

func (w *noSchemaWorkload) Name() string                                 { return "noschemas" }
func (w *noSchemaWorkload) QuickScale() workload.Workload                { return w }
func (w *noSchemaWorkload) DataPages() int                               { return 1 }
func (w *noSchemaWorkload) Partitioning() workload.Partitioning          { return workload.Partitioning{} }
func (w *noSchemaWorkload) Load([]*db.Engine) (workload.Instance, error) { return nil, nil }
func (w *noSchemaWorkload) Models(*workload.ModelEnv) []codegen.FnSpec   { return nil }

// TestGroupedDefsRejectsSchemaless: a workload without RecordSchemas is an
// explicit error, not a silent no-op.
func TestGroupedDefsRejectsSchemaless(t *testing.T) {
	if _, err := groupedDefs(&noSchemaWorkload{}, nil); err == nil {
		t.Fatal("workload without RecordSchemas must be rejected")
	}
}
