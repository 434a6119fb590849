package codegen

import (
	"encoding/binary"
	"hash"
	"math"

	"codelayout/internal/program"
)

// Digest writes into h every fact of img that a run, a profile or a layout
// pass can read: the program's fingerprint; each Fn in ProcID order (name,
// Auto, Cold, CloneOf); every block's decision annotation (site, auto, prob,
// cumulative weights); and the sealed step and jump tables. It seals img.
func Digest(img *Image, h hash.Hash) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	cums := func(cum []uint32) {
		put(uint64(len(cum)))
		for _, c := range cum {
			put(uint64(c))
		}
	}

	put(img.Prog.Fingerprint())
	put(uint64(len(img.Fns)))
	put(uint64(len(img.fnByProc)))
	for _, fn := range img.fnByProc {
		str(fn.Name)
		flag(fn.Auto)
		flag(fn.Proc.Cold)
		str(fn.CloneOf)
	}
	for id := range img.Prog.Blocks {
		d := img.decs[img.noteOf(program.BlockID(id))]
		str(d.site)
		flag(d.auto)
		put(math.Float64bits(d.prob))
		cums(d.cum)
	}
	img.seal()
	for _, s := range img.steps {
		put(uint64(s.head))
		put(uint64(uint32(s.fall)))
		put(uint64(uint32(s.taken)))
		put(uint64(uint32(s.aux)))
	}
	put(uint64(len(img.jumps)))
	for _, j := range img.jumps {
		put(uint64(len(j.targets)))
		for _, t := range j.targets {
			put(uint64(uint32(t)))
		}
		cums(j.cum)
		str(j.site)
	}
}
