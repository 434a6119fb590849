package db

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// logRecsOf decodes fuzz bytes into log records, twelve bytes a record: the
// kind (any byte), a 32-bit page, a 16-bit slot, the Before and After
// lengths (16 bits each, reduced to 0..PageBytes) and a flag byte whose low
// two bits make an empty Before or After nil rather than empty. Image bytes
// are a pattern of the record's index.
func logRecsOf(data []byte) []LogRec {
	image := func(n int, seed byte, isNil bool) []byte {
		if n == 0 && isNil {
			return nil
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*31)
		}
		return b
	}
	var recs []LogRec
	for ; len(data) >= 12; data = data[12:] {
		i := len(recs)
		nb := int(binary.LittleEndian.Uint16(data[7:])) % (PageBytes + 1)
		na := int(binary.LittleEndian.Uint16(data[9:])) % (PageBytes + 1)
		recs = append(recs, LogRec{
			Txn:    uint64(i) * 7919,
			Kind:   LogRecKind(data[0]),
			Page:   PageID(binary.LittleEndian.Uint32(data[1:])),
			Slot:   binary.LittleEndian.Uint16(data[5:]),
			Before: image(nb, byte(i), data[11]&1 != 0),
			After:  image(na, byte(i)+128, data[11]&2 != 0),
		})
	}
	return recs
}

// FuzzLogRoundTrip: any sequence of records, of any kind, page and slot and
// with images of 0 to PageBytes bytes, nil included, reads back from All
// field for field across chunk boundaries, with the LSNs Append assigned.
// An empty image reads back nil, whether it was appended nil or empty, and
// every image read back is a view with its capacity capped. Append returns
// the log's copy of Before. An image of 65535 bytes reads back; one of 65536
// panics and leaves the log as it was.
func FuzzLogRoundTrip(f *testing.F) {
	rec := func(kind byte, page uint32, slot, nb, na uint16, flags byte) []byte {
		b := []byte{kind, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, flags}
		binary.LittleEndian.PutUint32(b[1:], page)
		binary.LittleEndian.PutUint16(b[5:], slot)
		binary.LittleEndian.PutUint16(b[7:], nb)
		binary.LittleEndian.PutUint16(b[9:], na)
		return b
	}
	cat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}
	// An update and its commit; nil and empty images; one-page images; a
	// kind past the defined ones, and updates too large to share a chunk.
	f.Add(cat(rec(byte(LogUpdate), 3, 4, 40, 40, 0), rec(byte(LogCommit), 0, 0, 0, 0, 3)))
	f.Add(cat(rec(byte(LogInsert), 1, 0, 0, 100, 1), rec(byte(LogAbort), 0, 0, 0, 0, 0)))
	f.Add(cat(rec(byte(LogUpdate), 1<<31, 65535, PageBytes, PageBytes, 0), rec(byte(LogPrepare), 9, 9, 1, 0, 2)))
	f.Add(cat(rec(0xff, 0xffffffff, 7, 300, 200, 0), rec(byte(LogUpdate), 2, 2, 500, 500, 0), rec(byte(LogUpdate), 2, 2, 500, 500, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := NewWAL()
		want := logRecsOf(data)
		for i := range want {
			lsn, _, before := w.Append(want[i])
			if len(want[i].Before) == 0 {
				want[i].Before = nil
			}
			if len(want[i].After) == 0 {
				want[i].After = nil
			}
			if !reflect.DeepEqual(before, want[i].Before) {
				t.Fatalf("record %d: Append returned before-image of %d bytes, want %d", i, len(before), len(want[i].Before))
			}
			want[i].LSN = lsn
		}
		i := 0
		for got := range w.All() {
			if i >= len(want) {
				t.Fatalf("All yielded more than the %d records appended", len(want))
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("record %d: read back %v %d/%d LSN %d txn %d with %d+%d bytes, appended %v %d/%d LSN %d txn %d with %d+%d",
					i, got.Kind, got.Page, got.Slot, got.LSN, got.Txn, len(got.Before), len(got.After),
					want[i].Kind, want[i].Page, want[i].Slot, want[i].LSN, want[i].Txn, len(want[i].Before), len(want[i].After))
			}
			if cap(got.Before) != len(got.Before) || cap(got.After) != len(got.After) {
				t.Fatalf("record %d: images of capacity %d and %d, lengths %d and %d", i, cap(got.Before), cap(got.After), len(got.Before), len(got.After))
			}
			i++
		}
		if i != len(want) || w.Len() != len(want) || int64(w.storedBytes()) != w.TotalAppended {
			t.Fatalf("All yielded %d, Len %d of %d records; %d bytes stored, %d appended", i, w.Len(), len(want), w.storedBytes(), w.TotalAppended)
		}

		// The 16-bit length field holds 65535, and no more.
		longest := LogRec{Kind: LogUpdate, After: make([]byte, 1<<16-1)}
		over := LogRec{Kind: LogUpdate, After: make([]byte, 1<<16)}
		if len(data)%2 == 1 {
			longest.Before, longest.After = longest.After, nil
			over.Before, over.After = over.After, nil
		}
		w.Append(longest)
		lsn, total := w.CurrentLSN(), w.TotalAppended
		var last LogRec
		for last = range w.All() {
		}
		if last.LSN != lsn || len(last.Before)+len(last.After) != 1<<16-1 {
			t.Fatalf("the longest image read back as %d+%d bytes at LSN %d", len(last.Before), len(last.After), last.LSN)
		}
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || !strings.Contains(r, "an image holds at most") {
					t.Fatalf("an image of %d bytes: recovered %v, want the length-ceiling panic", 1<<16, r)
				}
			}()
			w.Append(over)
		}()
		if w.CurrentLSN() != lsn || w.TotalAppended != total || w.Len() != len(want)+1 {
			t.Fatal("the refused append changed the log")
		}
	})
}
