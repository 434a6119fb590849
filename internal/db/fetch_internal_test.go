package db

import "testing"

// twoRows returns an engine with a session and a table holding two records
// of different contents.
func twoRows(t *testing.T) (*Engine, *Session, *Table, RID, RID) {
	t.Helper()
	eng := NewEngine(Config{BufferPoolPages: 16})
	s := eng.NewSession(1, nil)
	tb := eng.CreateTable("t")
	if err := tb.EnsureFields([]FieldDef{{Name: "a", Width: 4}, {Name: "b", Off: 4, Width: 4}}); err != nil {
		t.Fatal(err)
	}
	r1 := tb.Insert(s, []byte("aaaaAAAA"))
	r2 := tb.Insert(s, []byte("bbbbBBBB"))
	return eng, s, tb, r1, r2
}

// TestFetchReusesTheSessionRow: Fetch and FetchFields return the session's
// one row buffer, so a session's second fetch overwrites the row its first
// returned; another session's fetches leave that buffer alone.
func TestFetchReusesTheSessionRow(t *testing.T) {
	eng, s, tb, r1, r2 := twoRows(t)
	first := tb.Fetch(s, r1)
	if string(first) != "aaaaAAAA" {
		t.Fatalf("first fetch = %q", first)
	}
	second := tb.FetchFields(s, r2, "b")
	if &first[0] != &second[0] {
		t.Fatal("the session's second fetch returned a fresh slice, not its row buffer")
	}
	if string(first) != "bbbbBBBB" {
		t.Fatalf("first row after the second fetch = %q, want it overwritten by the second", first)
	}

	other := eng.NewSession(2, nil)
	if got := tb.Fetch(other, r1); &got[0] == &second[0] || string(got) != "aaaaAAAA" {
		t.Fatalf("another session's fetch = %q, sharing the first session's buffer: %v", got, &got[0] == &second[0])
	}
	if string(second) != "bbbbBBBB" {
		t.Fatalf("another session's fetch changed this session's row to %q", second)
	}
}

// TestFetchModifyUpdateAbort: a row modified in the fetch buffer and handed
// to Update is logged as an image of its own, so a later fetch into the
// same buffer does not change the log, and Abort restores the before-image.
func TestFetchModifyUpdateAbort(t *testing.T) {
	eng, s, tb, r1, r2 := twoRows(t)
	s.Begin()
	row := tb.Fetch(s, r1)
	copy(row, "xxxx")
	tb.Update(s, r1, row)
	tb.Fetch(s, r2) // overwrites the buffer Update was handed
	var last LogRec
	for rec := range eng.WAL.All() {
		last = rec
	}
	if last.Kind != LogUpdate || string(last.After) != "xxxxAAAA" || string(last.Before) != "aaaaAAAA" {
		t.Fatalf("logged update %v: before %q after %q, want aaaaAAAA → xxxxAAAA", last.Kind, last.Before, last.After)
	}
	if got := tb.Fetch(s, r1); string(got) != "xxxxAAAA" {
		t.Fatalf("row inside the transaction = %q", got)
	}
	s.Abort()
	if got := tb.Fetch(s, r1); string(got) != "aaaaAAAA" {
		t.Fatalf("row after abort = %q, want the before-image", got)
	}
}

// TestWarmedFetchAllocs: once the session's row buffer has grown, a Fetch
// or FetchFields allocates nothing.
func TestWarmedFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	_, s, tb, r1, r2 := twoRows(t)
	if n := testing.AllocsPerRun(1000, func() { tb.Fetch(s, r1); tb.Fetch(s, r2) }); n != 0 {
		t.Errorf("%v allocations per warmed Fetch pair, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tb.FetchFields(s, r2, "a", "b") }); n != 0 {
		t.Errorf("%v allocations per warmed FetchFields, want 0", n)
	}
}
