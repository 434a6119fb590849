package program

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
)

// Encode serializes the program with encoding/gob.
func (p *Program) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(p); err != nil {
		return fmt.Errorf("program: encode: %w", err)
	}
	return bw.Flush()
}

// ReadProgram deserializes a program written by Encode.
func ReadProgram(r io.Reader) (*Program, error) {
	var p Program
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&p); err != nil {
		return nil, fmt.Errorf("program: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("program: invalid after decode: %w", err)
	}
	return &p, nil
}

// WriteFile creates the file at path and writes it with encode: a program's
// or a profile's Encode, or SaveLayout bound to its layout.
func WriteFile(path string, encode func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := encode(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads the file at path with decode: ReadProgram, profile.Read, or
// LoadLayout bound to the program the layout places.
func ReadFile[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return decode(f)
}

// Dump writes a human-readable listing of the program under the given layout
// (nil for structure only). Intended for debugging and golden tests on small
// programs.
func (p *Program) Dump(w io.Writer, l *Layout) {
	for _, pr := range p.Procs {
		cold := ""
		if pr.Cold {
			cold = " [cold]"
		}
		fmt.Fprintf(w, "proc %s%s\n", pr.Name, cold)
		blocks := pr.Blocks
		if l != nil {
			blocks = append([]BlockID(nil), pr.Blocks...)
			sort.Slice(blocks, func(i, j int) bool { return l.Addr(blocks[i]) < l.Addr(blocks[j]) })
		}
		for _, id := range blocks {
			b := p.Blocks[id]
			if l != nil {
				fmt.Fprintf(w, "  %#010x b%-5d body=%-3d %v", l.Addr(id), id, b.Body, b.Kind)
			} else {
				fmt.Fprintf(w, "  b%-5d body=%-3d %v", id, b.Body, b.Kind)
			}
			p.SuccEdges(b, func(e Edge) {
				fmt.Fprintf(w, " %s->b%d", e.Kind, e.Dst)
			})
			fmt.Fprintln(w)
		}
	}
}
