package codegen

import (
	"fmt"

	"codelayout/internal/program"
)

// Specialize returns a deep copy of the image whose program may grow
// per-transaction-kind procedure clones (CloneProc). Original ProcIDs and
// BlockIDs are preserved, so profiles trained on the base image map onto
// the specialized one unchanged, and the base image is never mutated. The
// copy starts unsealed whether or not emitters already walk the original.
func (img *Image) Specialize() *Image {
	out := &Image{
		Prog: img.Prog.Clone(),
		Fns:  make(map[string]*Fn, len(img.Fns)),
		// The annotations are shared, not copied: decs entries are immutable,
		// and a copy only ever adds notes for the blocks CloneProc appends —
		// with the capacities cut to the lengths, its first append moves the
		// slice off the original's array.
		note: img.note[:len(img.note):len(img.note)],
		decs: img.decs[:len(img.decs):len(img.decs)],
	}
	fns := make([]Fn, len(img.fnByProc))
	for id, fn := range img.fnByProc {
		fns[id] = *fn
		fns[id].Proc = out.Prog.Procs[id]
		out.Fns[fn.Name] = &fns[id]
		out.fnByProc = append(out.fnByProc, &fns[id])
	}
	return out
}

// CloneProc implements the layout pipeline's procedure-cloning seam
// (core.ProcCloner): it appends a copy of procedure id named "orig@tag",
// copying block bodies, terminators and emitter annotations, with
// intra-procedure successors remapped onto the clone's blocks. Calls out of
// the clone keep their original callees until the caller rewires them. The
// clone replays the original's engine events (Fn.CloneOf), so the emitter
// accepts it wherever the original was expected. Emitters walk a table
// compiled from the image when the first of them is created, so an image
// that has one can no longer be cloned into.
func (img *Image) CloneProc(id program.ProcID, tag string) (program.ProcID, error) {
	if img.steps != nil {
		return program.NoProc, fmt.Errorf("codegen: clone of proc %d after the image's first emitter; clone on a Specialize copy", id)
	}
	if int(id) >= len(img.Prog.Procs) {
		return program.NoProc, fmt.Errorf("codegen: clone of unknown proc %d", id)
	}
	orig := img.Prog.Proc(id)
	fnOrig := img.fnByProc[id]
	name := orig.Name + "@" + tag
	if _, dup := img.Fns[name]; dup {
		return program.NoProc, fmt.Errorf("codegen: duplicate clone %q", name)
	}
	pr := img.Prog.AddProc(name)
	pr.Cold = orig.Cold

	for _, obid := range orig.Blocks {
		ob := img.Prog.Block(obid)
		nb := img.Prog.AddBlock(pr, int(ob.Body))
		nb.Kind = ob.Kind
		nb.Fall = ob.Fall
		nb.Taken = ob.Taken
		nb.Callee = ob.Callee
		nb.Targets = append([]program.BlockID(nil), ob.Targets...)
	}
	// local maps a successor inside the original onto the clone's block at
	// the same position; procedures are a few dozen blocks, so it scans.
	local := func(b program.BlockID) program.BlockID {
		for i, ob := range orig.Blocks {
			if ob == b {
				return pr.Blocks[i]
			}
		}
		return b // inter-procedure reference: keep the original target
	}
	for i, obid := range orig.Blocks {
		nb := img.Prog.Block(pr.Blocks[i])
		if nb.Fall != program.NoBlock {
			nb.Fall = local(nb.Fall)
		}
		if nb.Taken != program.NoBlock {
			nb.Taken = local(nb.Taken)
		}
		for i, t := range nb.Targets {
			nb.Targets[i] = local(t)
		}
		if n := img.noteOf(obid); n != 0 {
			img.setNote(nb.ID, n)
		}
	}

	fn := &Fn{Name: name, Auto: fnOrig.Auto, Proc: pr, CloneOf: fnOrig.EventName()}
	img.Fns[name] = fn
	img.fnByProc = append(img.fnByProc, fn)
	return pr.ID, nil
}
