package program_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"codelayout/internal/core"
	"codelayout/internal/isa"
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
	for _, b := range p.Blocks {
		if id := b.ID; got.Addr(id) != l.Addr(id) || got.Occ(id) != l.Occ(id) {
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
	for _, b := range p.Blocks {
		if id := b.ID; got.Addr(id) != l.Addr(id) {
			t.Fatalf("block %d: address differs after roundtrip", id)
		}
	}
}

// TestLoadLayoutRejectsUnversionedFile: a file written before the format had
// a version — with the gap table as a gob map, or in today's shape — is an
// error naming its version and the one this build reads, never a layout that
// silently lost its gaps.
func TestLoadLayoutRejectsUnversionedFile(t *testing.T) {
	p := progtest.RandProgram(rand.New(rand.NewSource(12)), 6)
	order := program.SourceOrder(p)
	at := order[len(order)/2]
	var mapGaps bytes.Buffer
	if err := gob.NewEncoder(&mapGaps).Encode(struct {
		ProgramName string
		Order       []program.BlockID
		AlignAt     []program.BlockID
		AlignWords  int
		GapBefore   map[program.BlockID]uint64
	}{p.Name, order, []program.BlockID{order[0]}, 4, map[program.BlockID]uint64{at: 256}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		data    []byte
		version int
	}{
		{"map gaps", mapGaps.Bytes(), 0},
		{"listed gaps", fileOfVersion(t, p, 0, 4, order[:1], at, 256), 0},
		{"a later version", fileOfVersion(t, p, program.LayoutVersion+1, 4, order[:1], at, 256), program.LayoutVersion + 1},
	} {
		want := fmt.Sprintf("version %d, this build reads version %d", c.version, program.LayoutVersion)
		if _, err := program.LoadLayout(bytes.NewReader(c.data), p); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v does not say %q", c.name, err, want)
		}
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

// gapFile encodes a layout file of the current form for p: source order, the
// given alignment units and alignment, and one gap.
func gapFile(t testing.TB, p *program.Program, alignWords int, alignAt []program.BlockID, before program.BlockID, gap uint64) []byte {
	t.Helper()
	return fileOfVersion(t, p, program.LayoutVersion, alignWords, alignAt, before, gap)
}

// fileOfVersion is gapFile's file with the given format version.
func fileOfVersion(t testing.TB, p *program.Program, version, alignWords int, alignAt []program.BlockID, before program.BlockID, gap uint64) []byte {
	t.Helper()
	type fileGap struct {
		Block program.BlockID
		Bytes uint64
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(struct {
		Version     int
		ProgramName string
		Order       []program.BlockID
		AlignAt     []program.BlockID
		AlignWords  int
		Gaps        []fileGap
	}{version, p.Name, program.SourceOrder(p), alignAt, alignWords, []fileGap{{before, gap}}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnplaceableGapsAreErrors: a gap comes straight from a layout file. One
// that is not a whole number of words used to misalign every later block, one
// past the address space used to wrap and overlap the blocks with a nil error;
// each is now an error naming the block, from Materialize and from LoadLayout,
// and so is an alignment no address satisfies.
func TestUnplaceableGapsAreErrors(t *testing.T) {
	p := progtest.RandProgram(rand.New(rand.NewSource(12)), 6)
	order := program.SourceOrder(p)
	at := order[len(order)/2]
	for _, c := range []struct {
		name       string
		alignWords int
		gap        uint64
		block      program.BlockID // the one the error names
		want       string
	}{
		{"six bytes", 4, 6, at, "whole number"},
		{"half the address space", 4, 1 << 63, at, "does not fit"},
		{"wraps to just below zero", 4, ^uint64(0) - 3, at, "does not fit"},
		{"just past 56 bits", 0, 1 << 56, at, "does not fit"},
		// No address but zero is a multiple of these: the first unit cannot
		// be aligned.
		{"alignment of 2^54 words", 1 << 54, 64, order[0], "does not fit"},
		{"alignment of MaxInt64 words", math.MaxInt64, 0, order[0], "does not fit"},
	} {
		check := func(how string, l *program.Layout, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s through %s: accepted, block %d at %#x", c.name, how, at, l.Addr(at))
				return
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), fmt.Sprintf("block %d ", c.block)) {
				t.Errorf("%s through %s: error %q does not say %q of block %d", c.name, how, err, c.want, c.block)
			}
		}
		l, err := program.Materialize(p, order, program.MaterializeOptions{
			AlignWords: c.alignWords,
			AlignAt:    map[program.BlockID]bool{order[0]: true, at: true},
			GapBefore:  map[program.BlockID]uint64{at: c.gap},
		})
		check("Materialize", l, err)
		l, err = program.LoadLayout(bytes.NewReader(gapFile(t, p, c.alignWords, []program.BlockID{order[0], at}, at, c.gap)), p)
		check("LoadLayout", l, err)
	}
	// The largest gap that fits still loads, and the word holds the address.
	fits := uint64(1<<56) - isa.AppTextBase - 1<<20
	l, err := program.LoadLayout(bytes.NewReader(gapFile(t, p, 4, []program.BlockID{order[0], at}, at, fits)), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := progtest.CheckPlacement(l); err != nil {
		t.Fatal(err)
	}
}

// fuzzLayoutProgram is the program FuzzLoadLayout's files are read over.
func fuzzLayoutProgram() *program.Program {
	return progtest.RandProgram(rand.New(rand.NewSource(12)), 6)
}

// FuzzLoadLayout: any bytes handed to LoadLayout are an error or a layout
// that validates, whose every placement word decodes to the block's address
// and exit rules, and that saves and loads back to itself — never a panic.
func FuzzLoadLayout(f *testing.F) {
	p := fuzzLayoutProgram()
	all, err := core.ComboPipeline("all")
	if err != nil {
		f.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	l, _, err := all.Run(p, progtest.RandProfile(r, p, 20, 300))
	if err != nil {
		f.Fatal(err)
	}
	var saved bytes.Buffer
	if err := program.SaveLayout(&saved, l); err != nil {
		f.Fatal(err)
	}
	whole := saved.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:len(whole)-1])
	// An unversioned file with the gap table as a gob map: rejected.
	order := program.SourceOrder(p)
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(struct {
		ProgramName string
		Order       []program.BlockID
		AlignAt     []program.BlockID
		AlignWords  int
		GapBefore   map[program.BlockID]uint64
	}{p.Name, order, []program.BlockID{order[0]}, 4, map[program.BlockID]uint64{order[len(order)/2]: 256}}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	// A gap inside a fall-through chain, where no pipeline puts one: the block
	// before it can no longer fall into it.
	base, err := program.BaselineLayout(p)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range order {
		if next := base.Adj[b]; next != program.NoBlock {
			f.Add(gapFile(f, p, 4, order[:1], next, 64))
			break
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzLayoutProgram()
		l, err := program.LoadLayout(bytes.NewReader(data), p)
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("loaded layout does not validate: %v", err)
		}
		if err := progtest.CheckPlacement(l); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := program.SaveLayout(&again, l); err != nil {
			t.Fatal(err)
		}
		back, err := program.LoadLayout(&again, p)
		if err != nil {
			t.Fatalf("a loaded layout does not load back: %v", err)
		}
		// An empty gap table may be a nil map on one side only.
		if len(back.GapBefore) == 0 && len(l.GapBefore) == 0 {
			back.GapBefore = l.GapBefore
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("layout changed across SaveLayout → LoadLayout:\n got %+v\nwant %+v", back, l)
		}
	})
}
