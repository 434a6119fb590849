// Package isa defines the minimal Alpha-like instruction set architecture
// constants shared by the program representation, the layout optimizer and
// the simulators.
//
// The reproduction does not interpret instruction semantics: the experiments
// in the paper observe only instruction *fetch addresses*. What matters is
// that instructions are fixed-width words, that control transfers come in the
// kinds Alpha has (conditional branch, unconditional branch, call, return,
// indirect jump), and that direct branches have a bounded displacement. Those
// are the properties this package pins down.
//
// It is a package of its own because it sits below everything else: it
// imports nothing, and program, core, codegen, profile and the cache, TLB and
// trace models all read it, so no one of them can own it without the others
// importing that one.
package isa

// WordBytes is the size of one instruction in bytes (Alpha instructions are
// fixed 32-bit words).
const WordBytes = 4

// PageBytes is the virtual-memory page size used for iTLB simulation
// (Alpha 21164/21264 use 8 KB pages).
const PageBytes = 8192

// BranchDisplacementWords is the maximum forward/backward reach of a direct
// branch in instruction words. Alpha BR/BSR encode a signed 21-bit word
// displacement.
const BranchDisplacementWords = 1 << 20

// BranchDisplacementBytes is the direct-branch reach in bytes (±4 MB).
const BranchDisplacementBytes = BranchDisplacementWords * WordBytes

// TermKind classifies how a basic block ends. The terminator kind determines
// how many instruction words the block needs under a given layout (for
// example, an unconditional branch to the physically next block is elided)
// and where control may go next.
type TermKind uint8

const (
	// TermFallThrough ends a block that simply continues to its single
	// successor. If the successor is not placed immediately after the block,
	// the layout must materialize an unconditional branch word.
	TermFallThrough TermKind = iota

	// TermCond ends a block with a conditional branch: two successors, the
	// taken target and the fall-through. Layout may flip the branch polarity
	// so that the hotter successor falls through; if neither successor is
	// adjacent a branch pair (conditional + unconditional) is required.
	TermCond

	// TermBranch ends a block with a direct unconditional branch. Elided when
	// the target is placed immediately after.
	TermBranch

	// TermCall ends a block with a subroutine call. Control transfers to the
	// callee's entry; on return execution continues at the block's
	// continuation successor, which the layout keeps adjacent when possible
	// (the return address is the word after the call).
	TermCall

	// TermRet ends a block with a subroutine return.
	TermRet

	// TermIndirect ends a block with an indirect jump (switch tables,
	// function-pointer dispatch). Successors are the recorded possible
	// targets.
	TermIndirect

	// TermHalt ends a block after which the modeled thread stops (program
	// exit paths). It occupies one word like a return.
	TermHalt
)

// String returns the assembler-style mnemonic for the terminator kind.
func (k TermKind) String() string {
	switch k {
	case TermFallThrough:
		return "fall"
	case TermCond:
		return "bcond"
	case TermBranch:
		return "br"
	case TermCall:
		return "bsr"
	case TermRet:
		return "ret"
	case TermIndirect:
		return "jmp"
	case TermHalt:
		return "halt"
	default:
		return "?"
	}
}

// IsUncond reports whether the terminator is an unconditional transfer of
// control that never falls through (the fine-grain procedure splitting rule:
// "a code segment is ended by an unconditional branch or return").
func (k TermKind) IsUncond() bool {
	switch k {
	case TermBranch, TermRet, TermIndirect, TermHalt:
		return true
	}
	return false
}

// Address spaces. The application text is shared by all server processes
// (they run the same binary, as Oracle's dedicated servers do), so its
// instruction addresses are process-independent. Kernel text lives in a
// disjoint high region, as on Alpha.
const (
	// AppTextBase is the base virtual address of application text.
	AppTextBase uint64 = 0x0001_2000_0000

	// KernelTextBase is the base virtual address of kernel text.
	KernelTextBase uint64 = 0xFFFF_FC00_0000
)

// AppTextLimitBytes bounds the application text segment: every layout,
// including the cloned code a fusion pass grows, must fit in
// [AppTextBase, AppTextBase+AppTextLimitBytes) for its addresses to stay
// inside the application's half of the address map.
const AppTextLimitBytes int64 = 64 << 20
