// Package db implements the transaction-processing storage engine the OLTP
// workload runs on: slotted heap pages, an LRU buffer pool, B+tree indexes,
// a write-ahead log with group commit, a two-phase row lock manager, and a
// transaction layer with undo and crash recovery.
//
// The engine is real, executable Go; its routines are additionally
// instrumented through probe.Probe so that a codegen.Emitter can reproduce
// the instruction stream the equivalent compiled binary would fetch. All
// probe calls are structural no-ops under probe.Nop, so the engine is fully
// usable (and tested) standalone.
package db

import (
	"encoding/binary"
	"fmt"
)

// PageBytes is the database page size (8 KB, matching the Alpha page size
// used by the iTLB model so page-level effects line up).
const PageBytes = 8192

// PageID identifies a page within the database.
type PageID uint32

// InvalidPage is the null page ID.
const InvalidPage PageID = 0xFFFFFFFF

// DataBase is the base virtual address of the shared buffer pool (the SGA):
// every server process maps database pages at the same address, as Oracle's
// dedicated servers do.
const DataBase uint64 = 0x0000_8000_0000

// PageAddr returns the simulated virtual address of a page's first byte.
func PageAddr(id PageID) uint64 { return DataBase + uint64(id)*PageBytes }

// Slotted page layout:
//
//	0   u16 nslots
//	2   u16 free offset: NewPage writes 8 (the header's end) and nothing
//	        maintains or reads it after; a page read from disk that was never
//	        written has 0 there. The free space is recomputed from the slot
//	        table (Page.recordEnd).
//	4   u16 flags
//	6   u16 reserved
//	8.. slot table: u16 record offset per slot (0xFFFF = dead)
//	... free space ...
//	... records grow down from the end
const (
	pageHdrBytes = 8
	slotBytes    = 2
	deadSlot     = 0xFFFF
	offNumSlots  = 0
	offFreeStart = 2
)

// Page is one slotted page image.
type Page struct {
	ID PageID
	// lowWater caches recordEnd; 0 means unknown (no record starts inside
	// the header). It fills the padding after ID: an int would make Page 56
	// bytes, which the allocator rounds to 64.
	lowWater int32
	Data     []byte
	// Dirty marks pages modified since last checkpoint write.
	Dirty bool

	pin int
}

// NewPage allocates an initialized, empty slotted page.
func NewPage(id PageID) *Page {
	p := &Page{ID: id, Data: make([]byte, PageBytes)}
	p.setU16(offFreeStart, pageHdrBytes)
	return p
}

func (p *Page) u16(off int) uint16       { return binary.LittleEndian.Uint16(p.Data[off:]) }
func (p *Page) setU16(off int, v uint16) { binary.LittleEndian.PutUint16(p.Data[off:], v) }

// NumSlots returns the number of slots (live or dead) on the page.
func (p *Page) NumSlots() int { return int(p.u16(offNumSlots)) }

func (p *Page) slotOff(slot int) int { return pageHdrBytes + slot*slotBytes }

// recordEnd returns the lowest byte offset used by record storage. Only the
// first call after the page was read or a record deleted scans the slot
// table; Insert keeps the mark from then on.
func (p *Page) recordEnd() int {
	if p.lowWater != 0 {
		return int(p.lowWater)
	}
	n := p.NumSlots()
	end := PageBytes
	for s := 0; s < n; s++ {
		off := int(p.u16(p.slotOff(s)))
		if off != deadSlot && off < end {
			end = off
		}
	}
	p.lowWater = int32(end)
	return end
}

// FreeBytes returns the usable free space for one more record of any size
// (slot table growth included).
func (p *Page) FreeBytes() int {
	top := p.slotOff(p.NumSlots()) // end of slot table
	return p.recordEnd() - top - slotBytes
}

// Insert adds a record and returns its slot number.
func (p *Page) Insert(rec []byte) (int, error) {
	need := len(rec) + 2 // record prefixed by u16 length
	if p.FreeBytes() < need {
		return 0, fmt.Errorf("page %d: full (%d free, %d needed)", p.ID, p.FreeBytes(), need)
	}
	slot := p.NumSlots()
	off := p.recordEnd() - need
	binary.LittleEndian.PutUint16(p.Data[off:], uint16(len(rec)))
	copy(p.Data[off+2:], rec)
	p.setU16(p.slotOff(slot), uint16(off))
	p.setU16(offNumSlots, uint16(slot+1))
	p.lowWater = int32(off)
	p.Dirty = true
	return slot, nil
}

// Record returns the record stored in the slot. The returned slice aliases
// the page; callers must not hold it across page modifications.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.NumSlots() {
		return nil, fmt.Errorf("page %d: slot %d out of range", p.ID, slot)
	}
	off := int(p.u16(p.slotOff(slot)))
	if off == deadSlot {
		return nil, fmt.Errorf("page %d: slot %d dead", p.ID, slot)
	}
	n := int(binary.LittleEndian.Uint16(p.Data[off:]))
	return p.Data[off+2 : off+2+n], nil
}

// DataOffset returns the page-relative byte offset of a slot's stored
// record: the u16 length prefix sits at the returned offset and the record
// bytes begin 2 past it. The slot must be live (callers have already
// resolved it through Record); combined with PageAddr it yields the honest
// simulated address of a record for the D-cache models.
func (p *Page) DataOffset(slot int) int {
	return int(p.u16(p.slotOff(slot)))
}

// Update overwrites the record in place; the new record must have the same
// length (fixed-size rows, as TPC-B uses).
func (p *Page) Update(slot int, rec []byte) error {
	old, err := p.Record(slot)
	if err != nil {
		return err
	}
	if len(old) != len(rec) {
		return fmt.Errorf("page %d: update size %d != %d", p.ID, len(rec), len(old))
	}
	copy(old, rec)
	p.Dirty = true
	return nil
}

// Delete marks a slot dead.
func (p *Page) Delete(slot int) error {
	if slot < 0 || slot >= p.NumSlots() {
		return fmt.Errorf("page %d: slot %d out of range", p.ID, slot)
	}
	p.setU16(p.slotOff(slot), deadSlot)
	p.lowWater = 0 // a dead lowest record raises the mark
	p.Dirty = true
	return nil
}

// RID names a record: page plus slot.
type RID struct {
	Page PageID
	Slot uint16
}

// Pack encodes the RID as a uint64 (for index values).
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID { return RID{Page: PageID(v >> 16), Slot: uint16(v)} }
