package db

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// FieldDef places one named record field at a byte offset within a table's
// fixed-size records. A table's field defs are its physical record layout:
// the workloads resolve their encode/decode offsets from them, and the
// per-field heap accessors (Table.FetchFields/UpdateFields) emit one modeled
// data reference per touched field at its resolved offset — which is what
// lets a record-layout pass change the D-cache lines a transaction touches
// without changing its instruction stream.
type FieldDef struct {
	Name  string
	Off   int
	Width int
}

// FieldAccess tallies how often a field was read and written through the
// per-field heap accessors — the record-layout subsystem's training signal.
type FieldAccess struct {
	Reads  uint64
	Writes uint64
}

// Total returns the combined access count.
func (a FieldAccess) Total() uint64 { return a.Reads + a.Writes }

// ValidateFieldDefs checks a physical layout: distinct names, positive
// widths, fields that start at a non-negative offset and end within a page,
// and no byte overlap between fields.
func ValidateFieldDefs(table string, defs []FieldDef) error {
	if len(defs) == 0 {
		return fmt.Errorf("db: table %q: empty field layout", table)
	}
	names := make(map[string]bool, len(defs))
	sorted := make([]FieldDef, len(defs))
	copy(sorted, defs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	for i, f := range sorted {
		if f.Name == "" {
			return fmt.Errorf("db: table %q: unnamed field at offset %d", table, f.Off)
		}
		if f.Width <= 0 {
			return fmt.Errorf("db: table %q field %q: width %d; must be > 0", table, f.Name, f.Width)
		}
		if f.Off < 0 {
			return fmt.Errorf("db: table %q field %q: negative offset %d", table, f.Name, f.Off)
		}
		if f.Off > PageBytes-f.Width {
			return fmt.Errorf("db: table %q field %q: [%d,+%d) ends past the %d-byte page", table, f.Name, f.Off, f.Width, PageBytes)
		}
		if names[f.Name] {
			return fmt.Errorf("db: table %q: duplicate field %q", table, f.Name)
		}
		names[f.Name] = true
		if i > 0 {
			prev := sorted[i-1]
			if prev.Off+prev.Width > f.Off {
				return fmt.Errorf("db: table %q: fields %q [%d,%d) and %q [%d,%d) overlap",
					table, prev.Name, prev.Off, prev.Off+prev.Width, f.Name, f.Off, f.Off+f.Width)
			}
		}
	}
	return nil
}

// SetFieldHints installs per-table physical record layouts to be applied
// when the named tables are created (a record-layout pass's output). It must
// be called before the workload loads — CreateTable consults the hints — and
// validates every layout up front, so a malformed layout fails the machine
// build instead of corrupting rows mid-run. A nil map is a no-op; hints for
// tables the workload never creates are ignored.
func (e *Engine) SetFieldHints(hints map[string][]FieldDef) error {
	if len(hints) == 0 {
		return nil
	}
	for table, defs := range hints {
		if err := ValidateFieldDefs(table, defs); err != nil {
			return err
		}
	}
	if e.fieldHints == nil {
		e.fieldHints = make(map[string][]FieldDef, len(hints))
	}
	for table, defs := range hints {
		e.fieldHints[table] = defs
	}
	var b strings.Builder
	for _, table := range slices.Sorted(maps.Keys(e.fieldHints)) {
		fmt.Fprintf(&b, "%q:", table)
		for _, f := range e.fieldHints[table] {
			fmt.Fprintf(&b, "%q@%d+%d,", f.Name, f.Off, f.Width)
		}
		b.WriteByte(';')
	}
	e.hintsKey = b.String()
	return nil
}

// PackFields lays fields out in the order given, each starting where the
// one before it ends, from offset 0: the fields' Off values are ignored. A
// workload declares its schemas through it, so declaration order is the
// interleaved baseline layout, and a record-layout decision packs its
// permutation of the declared fields the same way.
func PackFields(fields ...FieldDef) []FieldDef {
	out := make([]FieldDef, len(fields))
	off := 0
	for i, f := range fields {
		out[i] = FieldDef{Name: f.Name, Off: off, Width: f.Width}
		off += f.Width
	}
	return out
}

// setFields installs a validated layout on the table and resets its tally.
func (t *Table) setFields(defs []FieldDef) {
	t.fields = append([]FieldDef(nil), defs...)
	t.byName = make(map[string]*tallied, len(defs))
	slots := make([]tallied, len(defs))
	for i, f := range t.fields {
		slots[i].FieldDef = f
		t.byName[f.Name] = &slots[i]
	}
}

// EnsureFields installs the given layout unless the table already has one
// (an engine field hint, installed at CreateTable, wins — that is how a
// grouped layout overrides the loader's interleaved default). When a layout
// is already present it is checked for compatibility: the same field names
// with the same widths, since only offsets may differ between layouts of one
// schema.
func (t *Table) EnsureFields(defs []FieldDef) error {
	if err := ValidateFieldDefs(t.Name, defs); err != nil {
		return err
	}
	if t.fields == nil {
		t.setFields(defs)
		return nil
	}
	if len(t.fields) != len(defs) {
		return fmt.Errorf("db: table %q: installed layout has %d fields, schema declares %d",
			t.Name, len(t.fields), len(defs))
	}
	for _, d := range defs {
		f, ok := t.byName[d.Name]
		if !ok {
			return fmt.Errorf("db: table %q: installed layout is missing field %q", t.Name, d.Name)
		}
		if f.Width != d.Width {
			return fmt.Errorf("db: table %q field %q: installed width %d != schema width %d",
				t.Name, d.Name, f.Width, d.Width)
		}
	}
	return nil
}

// Fields returns the table's physical layout (nil before EnsureFields or a
// field hint installed one).
func (t *Table) Fields() []FieldDef { return t.fields }

// FieldOffset resolves a field's byte offset within the record. Unknown
// fields are programming errors (a workload addressing a field its schema
// never declared), so it panics rather than returning a sentinel.
func (t *Table) FieldOffset(name string) int {
	f, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("db: table %q has no field %q (layout installed: %t)", t.Name, name, t.fields != nil))
	}
	return f.Off
}

// FieldAccesses returns a copy of the table's per-field access tally.
func (t *Table) FieldAccesses() map[string]FieldAccess {
	if len(t.byName) == 0 {
		return nil
	}
	out := make(map[string]FieldAccess, len(t.byName))
	for name, f := range t.byName {
		out[name] = f.FieldAccess
	}
	return out
}

// FieldProfile returns every table's per-field access tally, keyed by table
// name; tables without any tallied access are omitted. The machine merges
// these across shards into the record-layout training profile.
func (e *Engine) FieldProfile() map[string]map[string]FieldAccess {
	out := make(map[string]map[string]FieldAccess)
	for name, t := range e.tables {
		fa := t.FieldAccesses()
		keep := false
		for _, a := range fa {
			if a.Total() > 0 {
				keep = true
				break
			}
		}
		if keep {
			out[name] = fa
		}
	}
	return out
}
