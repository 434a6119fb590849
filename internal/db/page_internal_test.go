package db

import (
	"math/rand"
	"testing"
	"unsafe"
)

// rescanEnd is recordEnd without the cached mark: the lowest offset a live
// record starts at, PageBytes on a page with none.
func rescanEnd(p *Page) int {
	end := PageBytes
	for s := 0; s < p.NumSlots(); s++ {
		if off := int(p.u16(p.slotOff(s))); off != deadSlot && off < end {
			end = off
		}
	}
	return end
}

// TestPageLowWaterMatchesRescan drives random Insert/Delete/Update
// sequences, with pages now and then written out and read back (which
// forgets the mark), and checks after every op that the cached low-water
// mark is unknown or the rescan's, that FreeBytes is the rescan's, and that
// every insert lands where the rescan says the free space ends.
func TestPageLowWaterMatchesRescan(t *testing.T) {
	if got := unsafe.Sizeof(Page{}); got != 48 {
		t.Fatalf("Page is %d bytes, want 48: the mark must stay in ID's padding", got)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		disk := NewDisk()
		p := &Page{ID: 1, Data: disk.Read(1)}
		if seed%2 == 0 {
			p = NewPage(1)
		}
		for op := 0; op < 600; op++ {
			switch k := rng.Intn(20); {
			case k < 10:
				rec := make([]byte, 1+rng.Intn(120))
				rng.Read(rec)
				want := rescanEnd(p) - len(rec) - 2
				fits := want-slotBytes >= p.slotOff(p.NumSlots())
				slot, err := p.Insert(rec)
				if (err == nil) != fits {
					t.Fatalf("seed %d op %d: insert of %d bytes: err %v, rescan says fits=%v", seed, op, len(rec), err, fits)
				}
				if err == nil && p.DataOffset(slot) != want {
					t.Fatalf("seed %d op %d: insert landed at %d, rescan says %d", seed, op, p.DataOffset(slot), want)
				}
			case k < 15 && p.NumSlots() > 0:
				if err := p.Delete(rng.Intn(p.NumSlots())); err != nil {
					t.Fatal(err)
				}
			case k < 19 && p.NumSlots() > 0:
				slot := rng.Intn(p.NumSlots())
				if old, err := p.Record(slot); err == nil {
					rec := make([]byte, len(old))
					rng.Read(rec)
					if err := p.Update(slot, rec); err != nil {
						t.Fatal(err)
					}
				}
			default:
				disk.Write(p.ID, p.Data)
				p = &Page{ID: p.ID, Data: disk.Read(p.ID)}
			}
			end := rescanEnd(p)
			if p.lowWater != 0 && int(p.lowWater) != end {
				t.Fatalf("seed %d op %d: cached mark %d, rescan %d", seed, op, p.lowWater, end)
			}
			if got, want := p.FreeBytes(), end-p.slotOff(p.NumSlots())-slotBytes; got != want {
				t.Fatalf("seed %d op %d: FreeBytes %d, rescan %d", seed, op, got, want)
			}
		}
	}
}
