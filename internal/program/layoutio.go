package program

import (
	"bufio"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// layoutVersion is the format version SaveLayout writes and the only one
// LoadLayout reads. Files written before the format was versioned decode as
// version 0. Bump it whenever a field changes meaning or goes: gob drops
// fields the reader does not declare without a word, so an old file would
// otherwise load as a different layout.
const layoutVersion = 1

// layoutFile is the serializable form of a layout: the placement decisions
// Materialize was given, not the addresses it derived from them (loading
// re-materializes, and arrives at the same layout). This is what cmd/spike
// writes and the simulators load. Equal layouts encode to equal bytes: gob
// writes a map in iteration order, so the two maps of a layout are stored as
// sequences sorted by block.
type layoutFile struct {
	Version     int
	ProgramName string
	Order       []BlockID
	AlignAt     []BlockID
	AlignWords  int
	// FallFirst lists, in block order, the conditional blocks whose branch
	// pair tests the Fall arm first (CondFirst); every other pair tests the
	// taken arm first.
	FallFirst []BlockID
	Gaps      []layoutGap
}

// layoutGap is an explicit gap of Bytes before Block.
type layoutGap struct {
	Block BlockID
	Bytes uint64
}

// toFile extracts the serializable placement from a layout.
func (l *Layout) toFile() *layoutFile {
	f := &layoutFile{
		Version:     layoutVersion,
		ProgramName: l.Prog.Name,
		Order:       l.Order,
		AlignWords:  l.AlignWords,
	}
	for _, b := range l.Prog.Blocks {
		if first := l.CondFirst[b.ID]; first != NoBlock && first == b.Fall {
			f.FallFirst = append(f.FallFirst, b.ID)
		}
	}
	for b, on := range l.AlignAt {
		if on {
			f.AlignAt = append(f.AlignAt, b)
		}
	}
	slices.Sort(f.AlignAt)
	for b, gap := range l.GapBefore {
		f.Gaps = append(f.Gaps, layoutGap{b, gap})
	}
	slices.SortFunc(f.Gaps, func(a, b layoutGap) int { return cmp.Compare(a.Block, b.Block) })
	return f
}

// SaveLayout writes the placement with encoding/gob.
func SaveLayout(w io.Writer, l *Layout) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(l.toFile()); err != nil {
		return fmt.Errorf("layout: encode: %w", err)
	}
	return bw.Flush()
}

// LoadLayout reads a placement and re-materializes it over the program: the
// result equals the layout that was saved.
func LoadLayout(r io.Reader, p *Program) (*Layout, error) {
	var f layoutFile
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&f); err != nil {
		return nil, fmt.Errorf("layout: decode: %w", err)
	}
	if f.Version != layoutVersion {
		return nil, fmt.Errorf("layout: file format version %d, this build reads version %d (version 0 is a file written before versions; write it again)",
			f.Version, layoutVersion)
	}
	if f.ProgramName != p.Name {
		return nil, fmt.Errorf("layout: for program %q, not %q", f.ProgramName, p.Name)
	}
	alignAt := make(map[BlockID]bool, len(f.AlignAt))
	for _, b := range f.AlignAt {
		alignAt[b] = true
	}
	var gaps map[BlockID]uint64
	if len(f.Gaps) > 0 {
		gaps = make(map[BlockID]uint64, len(f.Gaps))
		for _, g := range f.Gaps {
			gaps[g.Block] = g.Bytes
		}
	}
	if f.AlignWords < 0 {
		return nil, fmt.Errorf("layout: negative alignment %d", f.AlignWords)
	}
	fallFirst := make(map[BlockID]bool, len(f.FallFirst))
	for _, b := range f.FallFirst {
		fallFirst[b] = true
	}
	return Materialize(p, f.Order, MaterializeOptions{
		AlignWords: f.AlignWords,
		AlignAt:    alignAt,
		GapBefore:  gaps,
		FallFirst:  func(b *Block) bool { return fallFirst[b.ID] },
	})
}
