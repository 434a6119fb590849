package profile_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"codelayout/internal/profile"
)

// FuzzProfileRead: a profile file is bytes from disk — a store directory
// someone else wrote, a truncated copy. Whatever they are, Read returns an
// error or a profile, never panics, and allocates in proportion to the input
// on top of one fixed read buffer (a length prefix cannot demand memory the
// file does not back); a profile it does return survives its own encoding:
// written and read again it is the same profile with the same fingerprint.
// Seeded from testdata's profiles, whole and truncated.
func FuzzProfileRead(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.profile"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed files in testdata: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pf, err := profile.Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// 16 bytes of counts and a map slot for every two bytes of input and
		// gob's copies of the message; the constant is gob's: a message that
		// claims 10 MB or more is read through one 10 MB buffer however
		// little follows (internal/saferio), on top of its type machinery.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+11<<20); got > limit {
			t.Fatalf("Read allocated %d bytes for %d bytes of input (limit %d)", got, len(data), limit)
		}
		if err != nil {
			if pf != nil {
				t.Fatalf("Read returned a profile with error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := pf.Encode(&buf); err != nil {
			t.Fatalf("a profile Read returned does not encode: %v", err)
		}
		again, err := profile.Read(&buf)
		if err != nil {
			t.Fatalf("a profile Read returned does not survive its own encoding: %v", err)
		}
		if !reflect.DeepEqual(pf, again) || pf.Fingerprint() != again.Fingerprint() {
			t.Fatalf("re-encoded profile differs:\n first:  %+v\n second: %+v", pf, again)
		}
	})
}
