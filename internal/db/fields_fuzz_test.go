package db_test

import (
	"encoding/binary"
	"math"
	"testing"

	"codelayout/internal/db"
)

// fieldDefsOf decodes fuzz bytes into a field set, seven bytes a field: a
// name from a small alphabet (so duplicates and the empty name come up), a
// signed 32-bit offset, or one just below math.MaxInt when the name byte's
// top bit is set, and a signed 16-bit width.
func fieldDefsOf(data []byte) []db.FieldDef {
	names := []string{"", "a", "b", "c", "ab"}
	var defs []db.FieldDef
	for ; len(data) >= 7; data = data[7:] {
		f := db.FieldDef{
			Name:  names[int(data[0]&0x7f)%len(names)],
			Off:   int(int32(binary.LittleEndian.Uint32(data[1:]))),
			Width: int(int16(binary.LittleEndian.Uint16(data[5:]))),
		}
		if data[0]&0x80 != 0 {
			f.Off = math.MaxInt - int(data[1])
		}
		defs = append(defs, f)
	}
	return defs
}

// FuzzValidateFieldDefs: any field set is accepted or refused, never a
// panic, and an accepted one is a layout the heap accessors can trust:
// named, distinct, in-bounds fields that share no byte. Packed in its given
// order (PackFields), an accepted layout is accepted again: the same names
// and widths in the same order, from offset 0 with no gap.
func FuzzValidateFieldDefs(f *testing.F) {
	field := func(name byte, off int32, width int16) []byte {
		b := []byte{name, 0, 0, 0, 0, 0, 0}
		binary.LittleEndian.PutUint32(b[1:], uint32(off))
		binary.LittleEndian.PutUint16(b[5:], uint16(width))
		return b
	}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	f.Add(cat(field(1, 0, 8), field(2, 8, 8), field(3, 16, 84)))         // a tiling layout
	f.Add(cat(field(1, 0, 8), field(2, 4, 8)))                           // overlap
	f.Add(cat(field(1, 0, 8), field(1, 8, 8)))                           // duplicate name
	f.Add(cat(field(0, 0, 8)))                                           // unnamed
	f.Add(cat(field(1, -8, 8), field(2, 0, 0)))                          // negative offset, empty width
	f.Add(cat(field(0x81, 10, 16), field(0x82, 1, 1)))                   // ends past MaxInt
	f.Add(cat(field(1, db.PageBytes-8, 8), field(2, db.PageBytes-1, 2))) // ends past the page
	f.Fuzz(func(t *testing.T, data []byte) {
		defs := fieldDefsOf(data)
		if err := db.ValidateFieldDefs("t", defs); err != nil {
			return
		}
		if len(defs) == 0 {
			t.Fatal("accepted an empty layout")
		}
		for i, a := range defs {
			if a.Name == "" || a.Width <= 0 || a.Off < 0 || a.Off > db.PageBytes-a.Width {
				t.Fatalf("accepted field %+v", a)
			}
			for _, b := range defs[:i] {
				if a.Name == b.Name {
					t.Fatalf("accepted duplicate field %q", a.Name)
				}
				if a.Off < b.Off+b.Width && b.Off < a.Off+a.Width {
					t.Fatalf("accepted overlapping fields %+v and %+v", a, b)
				}
			}
		}
		packed := db.PackFields(defs...)
		if err := db.ValidateFieldDefs("t", packed); err != nil {
			t.Fatalf("refused the packed layout %+v: %v", packed, err)
		}
		off := 0
		for i, p := range packed {
			if p.Name != defs[i].Name || p.Width != defs[i].Width || p.Off != off {
				t.Fatalf("packed field %d is %+v, want %q at %d width %d", i, p, defs[i].Name, off, defs[i].Width)
			}
			off += p.Width
		}
	})
}
