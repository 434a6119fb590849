package reclayout

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/db"
	"codelayout/internal/workload"
)

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
// preserved — and is deterministic for a given input.
func TestDecideProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		ts := randomSchema(r, fmt.Sprintf("t%d", iter))
		if err := ts.Validate(); err != nil {
			t.Fatalf("iter %d: random schema invalid: %v", iter, err)
		}
		counts := randomCounts(r, ts)
		defs := Decide(ts, counts)

		if err := db.ValidateFieldDefs(ts.Table, defs); err != nil {
			t.Fatalf("iter %d: grouped layout invalid: %v", iter, err)
		}
		if len(defs) != len(ts.Fields) {
			t.Fatalf("iter %d: %d fields in, %d out", iter, len(ts.Fields), len(defs))
		}
		width := make(map[string]int, len(ts.Fields))
		for _, f := range ts.Fields {
			width[f.Name] = f.Width
		}
		total := 0
		for _, d := range defs {
			w, ok := width[d.Name]
			if !ok {
				t.Fatalf("iter %d: layout invented field %q", iter, d.Name)
			}
			if d.Width != w {
				t.Fatalf("iter %d: field %q width %d != schema %d", iter, d.Name, d.Width, w)
			}
			if d.Off != total {
				t.Fatalf("iter %d: field %q at %d, want contiguous %d", iter, d.Name, d.Off, total)
			}
			total += d.Width
		}
		if total != ts.Width() {
			t.Fatalf("iter %d: record width %d != schema width %d", iter, total, ts.Width())
		}
		if !reflect.DeepEqual(defs, Decide(ts, counts)) {
			t.Fatalf("iter %d: Decide is not deterministic", iter)
		}
	}
}

// TestDecideHotFieldsLead: measured-hot fields come first in descending
// access order; untouched fields keep declared order behind them.
func TestDecideHotFieldsLead(t *testing.T) {
	ts := workload.TableSchema{Table: "t", Fields: []workload.FieldSchema{
		{Name: "a", Width: 8}, {Name: "b", Width: 8},
		{Name: "c", Width: 8}, {Name: "d", Width: 8},
	}}
	defs := Decide(ts, map[string]db.FieldAccess{
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
		defs := Decide(ts, randomCounts(r, ts))

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
	defs, err := GroupedDefs(wl, Profile{"acct": {"bal": {Reads: 50, Writes: 50}}})
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
	if _, err := GroupedDefs(&noSchemaWorkload{}, nil); err == nil {
		t.Fatal("workload without RecordSchemas must be rejected")
	}
}
