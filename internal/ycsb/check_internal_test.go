package ycsb

import (
	"strings"
	"testing"

	"codelayout/internal/db"
)

// TestCheckCatchesEveryDefect breaks a freshly loaded store in each way the
// audit's one index walk must notice: an owned key missing from the index, a
// key in the index the engine does not own (past the owned range and inside
// it), and a record whose value is not its replayed deltas.
func TestCheckCatchesEveryDefect(t *testing.T) {
	const records, victim = 300, 117
	// loadBut loads every key but skip (none when skip is negative).
	loadBut := func(t *testing.T, skip int64) (*Bench, *db.Session) {
		t.Helper()
		eng := db.NewEngine(db.Config{BufferPoolPages: 1024})
		b, err := loadOwned(eng, Scale{Records: records}, func(k uint64) bool { return int64(k) != skip })
		if err != nil {
			t.Fatal(err)
		}
		return b, eng.NewSession(0, nil)
	}
	// stray indexes key at an existing record's RID.
	stray := func(t *testing.T, b *Bench, s *db.Session, key uint64) {
		t.Helper()
		packed, _ := b.Users.Search(s, 0)
		if err := b.Users.Insert(s, key, packed); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*testing.T) (*Bench, *db.Session)
		want    string
	}{
		{"missing record", func(t *testing.T) (*Bench, *db.Session) {
			b, s := loadBut(t, victim)
			b.owned = nil // the engine owns every key; its index lacks the victim
			for k := uint64(0); k < records; k++ {
				b.owned = append(b.owned, k)
			}
			return b, s
		}, "record 117 missing"},
		{"missing last record", func(t *testing.T) (*Bench, *db.Session) {
			b, s := loadBut(t, records-1)
			b.owned = append(b.owned, records-1)
			return b, s
		}, "record 299 missing"},
		{"stray key past the owned range", func(t *testing.T) (*Bench, *db.Session) {
			b, s := loadBut(t, -1)
			stray(t, b, s, records+5)
			return b, s
		}, "stray key 305"},
		{"stray key inside the owned range", func(t *testing.T) (*Bench, *db.Session) {
			b, s := loadBut(t, victim)
			stray(t, b, s, victim)
			return b, s
		}, "stray key 117"},
		{"wrong value", func(t *testing.T) (*Bench, *db.Session) {
			b, s := loadBut(t, -1)
			packed, _ := b.Users.Search(s, victim)
			rid := db.UnpackRID(packed)
			row := b.UserTable.Fetch(s, rid)
			b.off.rowSetValue(row, 1)
			b.UserTable.Update(s, rid, row)
			return b, s
		}, "record 117 at version 0 has value 1, want 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, s := tc.corrupt(t)
			err := b.Check(s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	b, s := loadBut(t, -1)
	if err := b.Check(s); err != nil {
		t.Fatalf("Check of an intact store: %v", err)
	}
}
