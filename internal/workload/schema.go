package workload

import (
	"fmt"

	"codelayout/internal/db"
)

// FieldSchema declares one record field of a table: its name, byte width,
// and which transaction kinds read or write it at runtime. The declaration
// order of fields in a TableSchema is the interleaved (storage-order)
// baseline layout; a record-layout pass may permute it, so code must address
// fields through the resolved offsets (db.Table.FieldOffset), never by
// hard-coded byte positions.
type FieldSchema struct {
	Name  string
	Width int
	// ReadBy and WrittenBy list the transaction kinds that touch the field
	// on their instrumented run paths. They are the static hotness hint the
	// record-layout decision falls back to when no measured field-access
	// profile is available (a field touched by no kind is cold padding).
	ReadBy    []string
	WrittenBy []string
}

// TableSchema declares a table's record shape. Fields tile the record in
// declaration order with no gaps; Width() is the fixed record size.
type TableSchema struct {
	Table  string
	Fields []FieldSchema
}

// Width returns the record byte width: the sum of the field widths.
func (ts TableSchema) Width() int {
	w := 0
	for _, f := range ts.Fields {
		w += f.Width
	}
	return w
}

// Validate checks the schema is well-formed: a table name, at least one
// field, positive widths, distinct field names.
func (ts TableSchema) Validate() error {
	if ts.Table == "" {
		return fmt.Errorf("workload: table schema with empty table name")
	}
	if len(ts.Fields) == 0 {
		return fmt.Errorf("workload: table %q schema has no fields", ts.Table)
	}
	seen := make(map[string]bool, len(ts.Fields))
	for _, f := range ts.Fields {
		if f.Name == "" {
			return fmt.Errorf("workload: table %q has an unnamed field", ts.Table)
		}
		if f.Width <= 0 {
			return fmt.Errorf("workload: table %q field %q has width %d; must be > 0", ts.Table, f.Name, f.Width)
		}
		if seen[f.Name] {
			return fmt.Errorf("workload: table %q declares field %q twice", ts.Table, f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Interleaved returns the baseline field layout: fields at their declared
// offsets, tiling the record in declaration order. This is the layout every
// engine uses when no record-layout hints are installed, and it reproduces
// the historical hard-coded byte offsets of the workloads.
func (ts TableSchema) Interleaved() []db.FieldDef {
	defs := make([]db.FieldDef, 0, len(ts.Fields))
	off := 0
	for _, f := range ts.Fields {
		defs = append(defs, db.FieldDef{Name: f.Name, Off: off, Width: f.Width})
		off += f.Width
	}
	return defs
}

// Hot reports whether any transaction kind reads or writes the field — the
// static hotness signal used when no measured profile exists.
func (f FieldSchema) Hot() bool { return len(f.ReadBy)+len(f.WrittenBy) > 0 }

// RecordSchemas is implemented by workloads that declare per-table field
// schemas, making them eligible for profile-guided record layout
// (expt.DataLayoutTable). The returned schemas must cover every table whose
// encode/decode paths resolve field offsets through db.Table.FieldOffset.
type RecordSchemas interface {
	RecordSchemas() []TableSchema
}
