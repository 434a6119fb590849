package program_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

func TestLayoutSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	p := progtest.RandProgram(r, 6)
	order := program.SourceOrder(p)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	alignAt := map[program.BlockID]bool{order[0]: true, order[len(order)/2]: true}
	l, err := program.Materialize(p, order, program.MaterializeOptions{
		AlignWords: 4,
		AlignAt:    alignAt,
		GapBefore:  map[program.BlockID]uint64{order[len(order)/2]: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := program.SaveLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := program.LoadLayout(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for id := range p.Blocks {
		if got.Addr[id] != l.Addr[id] || got.Occ[id] != l.Occ[id] {
			t.Fatalf("block %d: addr/occ differ after roundtrip", id)
		}
	}
	if got.TotalWords() != l.TotalWords() {
		t.Fatalf("total words %d != %d", got.TotalWords(), l.TotalWords())
	}
}

// TestSaveLayoutIsByteStable: a layout file is a digest of the layout. A
// layout of the shape CFA produces — many alignment units, explicit gaps
// before some of them, both kept as maps — saves to the same bytes every time
// and loads back to the same addresses.
func TestSaveLayoutIsByteStable(t *testing.T) {
	p := progtest.RandProgram(rand.New(rand.NewSource(21)), 30)
	order := program.SourceOrder(p)
	opts := program.MaterializeOptions{
		AlignWords: 4,
		AlignAt:    make(map[program.BlockID]bool),
		GapBefore:  make(map[program.BlockID]uint64),
	}
	for i := 0; i < len(order); i += 4 {
		opts.AlignAt[order[i]] = true
		if i%3 == 0 {
			opts.GapBefore[order[i]] = uint64(64 + 16*i)
		}
	}
	l, err := program.Materialize(p, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.AlignAt) < 16 || len(l.GapBefore) < 8 {
		t.Fatalf("layout has %d alignment units and %d gaps; the test needs several of each", len(l.AlignAt), len(l.GapBefore))
	}
	var first bytes.Buffer
	if err := program.SaveLayout(&first, l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var again bytes.Buffer
		if err := program.SaveLayout(&again, l); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d of one layout differs from the first", i+2)
		}
	}
	got, err := program.LoadLayout(&first, p)
	if err != nil {
		t.Fatal(err)
	}
	for id := range p.Blocks {
		if got.Addr[id] != l.Addr[id] {
			t.Fatalf("block %d: address differs after roundtrip", id)
		}
	}
}

// TestLoadLayoutReadsMapGapFiles: files written when the gap table was still
// a gob map keep loading.
func TestLoadLayoutReadsMapGapFiles(t *testing.T) {
	p := progtest.RandProgram(rand.New(rand.NewSource(12)), 6)
	order := program.SourceOrder(p)
	opts := program.MaterializeOptions{
		AlignWords: 4,
		AlignAt:    map[program.BlockID]bool{order[0]: true},
		GapBefore:  map[program.BlockID]uint64{order[len(order)/2]: 256},
	}
	want, err := program.Materialize(p, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		ProgramName string
		Order       []program.BlockID
		AlignAt     []program.BlockID
		AlignWords  int
		GapBefore   map[program.BlockID]uint64
	}{p.Name, order, []program.BlockID{order[0]}, 4, opts.GapBefore}); err != nil {
		t.Fatal(err)
	}
	got, err := program.LoadLayout(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWords() != want.TotalWords() || got.GapBefore[order[len(order)/2]] != 256 {
		t.Fatalf("old-format file lost its gap: %d words, want %d", got.TotalWords(), want.TotalWords())
	}
}

func TestLoadLayoutRejectsWrongProgram(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	p := progtest.RandProgram(r, 3)
	l, err := program.BaselineLayout(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := program.SaveLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	other := progtest.RandProgram(rand.New(rand.NewSource(14)), 3)
	other.Name = "different"
	if _, err := program.LoadLayout(&buf, other); err == nil {
		t.Fatal("expected program-name mismatch error")
	}
}
