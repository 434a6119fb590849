package program

import (
	"bufio"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
)

// layoutFile is the serializable form of a layout: the placement decisions,
// not the derived addresses (which Materialize recomputes). This is what
// cmd/spike writes and the simulators load. Equal layouts encode to equal
// bytes: gob writes a map in iteration order, so the two maps of a layout
// are stored as sequences sorted by block.
type layoutFile struct {
	ProgramName string
	Order       []BlockID
	AlignAt     []BlockID
	AlignWords  int
	// GapBefore is read from files written before Gaps replaced it; toFile
	// leaves it nil.
	GapBefore map[BlockID]uint64
	Gaps      []layoutGap
}

// layoutGap is an explicit gap of Bytes before Block.
type layoutGap struct {
	Block BlockID
	Bytes uint64
}

// toFile extracts the serializable placement from a layout.
func (l *Layout) toFile(alignWords int) *layoutFile {
	f := &layoutFile{
		ProgramName: l.Prog.Name,
		Order:       l.Order,
		AlignWords:  alignWords,
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
func SaveLayout(w io.Writer, l *Layout, alignWords int) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(l.toFile(alignWords)); err != nil {
		return fmt.Errorf("layout: encode: %w", err)
	}
	return bw.Flush()
}

// LoadLayout reads a placement and re-materializes it over the program.
func LoadLayout(r io.Reader, p *Program, hotness func(BlockID) uint64) (*Layout, error) {
	var f layoutFile
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&f); err != nil {
		return nil, fmt.Errorf("layout: decode: %w", err)
	}
	if f.ProgramName != p.Name {
		return nil, fmt.Errorf("layout: for program %q, not %q", f.ProgramName, p.Name)
	}
	alignAt := make(map[BlockID]bool, len(f.AlignAt))
	for _, b := range f.AlignAt {
		alignAt[b] = true
	}
	gaps := f.GapBefore
	if len(f.Gaps) > 0 {
		gaps = make(map[BlockID]uint64, len(f.Gaps))
		for _, g := range f.Gaps {
			gaps[g.Block] = g.Bytes
		}
	}
	align := f.AlignWords
	if align == 0 {
		align = 4
	}
	return Materialize(p, f.Order, MaterializeOptions{
		AlignWords: align,
		AlignAt:    alignAt,
		GapBefore:  gaps,
		Hotness:    hotness,
	})
}

// SaveLayoutFile writes the placement to a file.
func SaveLayoutFile(path string, l *Layout, alignWords int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveLayout(f, l, alignWords); err != nil {
		return err
	}
	return f.Close()
}

// LoadLayoutFile reads a placement file and materializes it.
func LoadLayoutFile(path string, p *Program) (*Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadLayout(f, p, nil)
}
