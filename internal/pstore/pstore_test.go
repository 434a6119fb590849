package pstore_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"codelayout/internal/profile"
	"codelayout/internal/pstore"
)

func testProfile(name string, seed uint64) *profile.Profile {
	pf := &profile.Profile{
		Name:       name,
		BlockCount: make([]uint64, 16),
		EdgeCount:  map[uint64]uint64{},
	}
	for i := range pf.BlockCount {
		pf.BlockCount[i] = seed * uint64(i+1)
	}
	pf.AddEdge(0, 1, seed)
	pf.AddEdge(1, 3, 2*seed)
	pf.AddEdge(3, 0, 3*seed)
	return pf
}

func testEntry(spec string, seed uint64) *pstore.Entry {
	return &pstore.Entry{
		Spec:      spec,
		Image:     "img-abc123",
		CreatedAt: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		KindFreq:  map[string]float64{"deposit": 0.7, "transfer": 0.3},
		App:       testProfile("app", seed),
		Kern:      testProfile("kern", seed+7),
		DCPI:      testProfile("dcpi", seed+13),
	}
}

func TestStoreRoundTripDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := pstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("tpcb/s4/c2/seed1/w20/x200", 5)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same dir must serve the entry from disk.
	s2, err := pstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(e.Key())
	if !ok {
		t.Fatal("disk round-trip missed")
	}
	if got.App.Fingerprint() != e.App.Fingerprint() ||
		got.Kern.Fingerprint() != e.Kern.Fingerprint() ||
		got.DCPI.Fingerprint() != e.DCPI.Fingerprint() {
		t.Fatal("profiles changed across disk round-trip")
	}
	if !got.CreatedAt.Equal(e.CreatedAt) {
		t.Fatalf("CreatedAt = %v, want %v", got.CreatedAt, e.CreatedAt)
	}
	if got.KindFreq["deposit"] != 0.7 || got.KindFreq["transfer"] != 0.3 {
		t.Fatalf("kind mix changed: %v", got.KindFreq)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 hit 0 misses", st)
	}
}

// TestStoreIsTheDirectory pins that a Store holds nothing the directory does
// not: a Put is a hit through a second Store over the same directory, and once
// the file is gone the Store that wrote it misses too.
func TestStoreIsTheDirectory(t *testing.T) {
	dir := t.TempDir()
	writer, err := pstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reader, err := pstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("spec", 3)
	if _, ok := writer.Get(e.Key()); ok {
		t.Fatal("empty store hit")
	}
	if err := writer.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.Get(e.Key()); !ok {
		t.Fatal("a second store over the directory missed what the first put")
	}
	if err := os.Remove(filepath.Join(dir, e.Key().Filename())); err != nil {
		t.Fatal(err)
	}
	if _, ok := writer.Get(e.Key()); ok {
		t.Fatal("the store served an entry whose file is gone")
	}
	if st := writer.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("writer stats = %+v, want 0 hits 2 misses", st)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if s, err := pstore.Open(""); err == nil {
		t.Fatalf("Open(\"\") = %+v, want an error: there is no memory-only store", s)
	}
}

func TestStoreCorruptFileEvictedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, _ := pstore.Open(dir)
	e := testEntry("spec-corrupt", 9)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, e.Key().Filename())

	corruptions := map[string]func([]byte) []byte{
		"truncate":  func(b []byte) []byte { return b[:len(b)/3] },
		"garbage":   func(b []byte) []byte { return []byte("PSTOREv1\nnot gob") },
		"bad magic": func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bit flip": func(b []byte) []byte {
			b[len(b)-9] ^= 0x01 // inside the profile payload: fingerprint check catches it
			return b
		},
	}
	for name, corrupt := range corruptions {
		raw, err := os.ReadFile(path)
		if err != nil {
			// Re-put: the previous case evicted the file.
			if err := s.Put(e); err != nil {
				t.Fatal(err)
			}
			raw, err = os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, corrupt(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		// ReadEntry must surface the typed error...
		if _, err := pstore.ReadEntry(path); !errors.Is(err, pstore.ErrCorrupt) {
			t.Errorf("%s: ReadEntry error = %v, want ErrCorrupt", name, err)
		}
		// ...and a fresh store's Get must treat it as an evicting miss.
		fresh, _ := pstore.Open(dir)
		if _, ok := fresh.Get(e.Key()); ok {
			t.Fatalf("%s: corrupt file served as a hit", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt file not evicted", name)
		}
		st := fresh.Stats()
		if st.Evictions != 1 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v, want 1 eviction 1 miss", name, st)
		}
	}
}

func TestReadEntryMissingFile(t *testing.T) {
	_, err := pstore.ReadEntry(filepath.Join(t.TempDir(), "nope.pstore"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want os.ErrNotExist", err)
	}
	if errors.Is(err, pstore.ErrCorrupt) {
		t.Fatal("missing file reported as corrupt")
	}
}

func TestKeyFilenameDistinct(t *testing.T) {
	seen := map[string]pstore.Key{}
	for _, k := range []pstore.Key{
		{Spec: "a", Image: "x"},
		{Spec: "a", Image: "y"},
		{Spec: "b", Image: "x"},
		{Spec: "ab", Image: ""}, // vs {"a","b"}: the separator must matter
		{Spec: "a", Image: "b"},
	} {
		name := k.Filename()
		if prev, dup := seen[name]; dup {
			t.Fatalf("keys %+v and %+v share filename %s", prev, k, name)
		}
		seen[name] = k
	}
}

func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, _ := pstore.Open(dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e := testEntry(fmt.Sprintf("spec-%d", (g+i)%6), uint64(g*100+i+1))
				if err := s.Put(e); err != nil {
					t.Error(err)
					return
				}
				s.Get(e.Key())
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
}
