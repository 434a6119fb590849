// Package profile holds basic-block execution profiles and the two
// collectors the paper uses: Pixie-style exact instrumentation counts and
// DCPI-style PC sampling. Spike consumes these profiles to weight flow and
// call edges.
package profile

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"codelayout/internal/program"
)

// Profile records how often each block executed and how often each
// control-flow edge was traversed. Edge counts may be absent (sampling
// profiles); EnsureEdges estimates them from block counts the way Spike
// estimates flow-edge weights.
type Profile struct {
	Name       string
	BlockCount []uint64
	EdgeCount  map[uint64]uint64
}

// New creates an empty profile sized for the program.
func New(name string, p *program.Program) *Profile {
	return &Profile{
		Name:       name,
		BlockCount: make([]uint64, p.NumBlocks()),
		EdgeCount:  make(map[uint64]uint64),
	}
}

// Count returns the execution count of block b.
func (pf *Profile) Count(b program.BlockID) uint64 {
	if int(b) >= len(pf.BlockCount) || b < 0 {
		return 0
	}
	return pf.BlockCount[b]
}

// Edge returns the traversal count of the edge src→dst.
func (pf *Profile) Edge(src, dst program.BlockID) uint64 {
	return pf.EdgeCount[program.EdgeKey(src, dst)]
}

// AddBlock records n executions of block b.
func (pf *Profile) AddBlock(b program.BlockID, n uint64) {
	for int(b) >= len(pf.BlockCount) {
		pf.BlockCount = append(pf.BlockCount, 0)
	}
	pf.BlockCount[b] += n
}

// AddEdge records n traversals of src→dst.
func (pf *Profile) AddEdge(src, dst program.BlockID, n uint64) {
	pf.EdgeCount[program.EdgeKey(src, dst)] += n
}

// Merge folds other into pf.
func (pf *Profile) Merge(other *Profile) {
	for b, n := range other.BlockCount {
		pf.AddBlock(program.BlockID(b), n)
	}
	for k, n := range other.EdgeCount {
		pf.EdgeCount[k] += n
	}
}

// Clone returns a deep copy of the profile.
func (pf *Profile) Clone() *Profile {
	cp := &Profile{
		Name:       pf.Name,
		BlockCount: append([]uint64(nil), pf.BlockCount...),
		EdgeCount:  make(map[uint64]uint64, len(pf.EdgeCount)),
	}
	for k, n := range pf.EdgeCount {
		cp.EdgeCount[k] = n
	}
	return cp
}

// TotalBlocks returns the total number of block executions.
func (pf *Profile) TotalBlocks() uint64 {
	var t uint64
	for _, n := range pf.BlockCount {
		t += n
	}
	return t
}

// HasEdges reports whether the profile carries measured edge counts.
func (pf *Profile) HasEdges() bool { return len(pf.EdgeCount) > 0 }

// EnsureEdges guarantees edge counts exist: when the profile was gathered by
// sampling (block counts only), flow-edge weights are estimated from the
// basic-block counts, as Spike does — each block's outflow is split across
// its successors in proportion to the successors' own execution counts.
func (pf *Profile) EnsureEdges(p *program.Program) {
	if pf.HasEdges() {
		return
	}
	if pf.EdgeCount == nil {
		pf.EdgeCount = make(map[uint64]uint64)
	}
	for _, b := range p.Blocks {
		n := pf.Count(b.ID)
		if n == 0 {
			continue
		}
		var succs []program.Edge
		var total uint64
		p.SuccEdges(b, func(e program.Edge) {
			succs = append(succs, e)
			total += pf.Count(e.Dst)
		})
		for _, e := range succs {
			var w uint64
			if total > 0 {
				w = n * pf.Count(e.Dst) / total
			} else if len(succs) > 0 {
				w = n / uint64(len(succs))
			}
			if w > 0 {
				pf.EdgeCount[program.EdgeKey(e.Src, e.Dst)] += w
			}
		}
	}
}

// CheckProgram returns an error when the profile cannot have been gathered
// on p: it counts blocks, or edges between blocks, that p does not have. A
// profile of a program with fewer blocks than p passes — telling that one
// apart takes the program's fingerprint in the profile file.
func (pf *Profile) CheckProgram(p *program.Program) error {
	n := p.NumBlocks()
	if len(pf.BlockCount) > n {
		return fmt.Errorf("profile %q counts %d blocks, program %q has %d: it is a profile of another program",
			pf.Name, len(pf.BlockCount), p.Name, n)
	}
	bad, found := uint64(0), false
	for k := range pf.EdgeCount {
		src, dst := program.SplitEdgeKey(k)
		if (src < 0 || int(src) >= n || dst < 0 || int(dst) >= n) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	if found {
		src, dst := program.SplitEdgeKey(bad)
		return fmt.Errorf("profile %q counts an edge %d→%d, program %q has %d blocks: it is a profile of another program",
			pf.Name, src, dst, p.Name, n)
	}
	return nil
}

// HottestBlocks returns block IDs sorted by descending count (ties by ID),
// including only blocks with nonzero counts.
func (pf *Profile) HottestBlocks() []program.BlockID {
	var ids []program.BlockID
	for b, n := range pf.BlockCount {
		if n > 0 {
			ids = append(ids, program.BlockID(b))
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if pf.BlockCount[a] != pf.BlockCount[b] {
			return pf.BlockCount[a] > pf.BlockCount[b]
		}
		return a < b
	})
	return ids
}

// Encode serializes the profile with encoding/gob.
func (pf *Profile) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(pf); err != nil {
		return fmt.Errorf("profile: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserializes a profile written by Encode.
func Read(r io.Reader) (*Profile, error) {
	var pf Profile
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&pf); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	return &pf, nil
}
