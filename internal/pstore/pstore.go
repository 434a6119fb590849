// Package pstore is the persistent profile store: training runs become
// cached artifacts keyed by their training spec — the workload's whole spec
// plus the run's shape — and image identity, so a layout server restarted
// against the same workload skips retraining entirely (the "profile once,
// serve everywhere" loop). Entries hold the app/kernel/DCPI profiles plus the
// observed transaction-kind mix; the store is a directory of content-hashed
// files written atomically (temp file + rename), and holds nothing else — a
// process that wants a run twice keeps it itself (expt's ProfileSource
// memoizes every training run it loads). Loads are corruption-tolerant: a
// file that fails to decode, lacks one of its three profiles or whose
// embedded fingerprints disagree with its contents is evicted from disk and
// reported as a miss — the caller retrains, never crashes.
package pstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"codelayout/internal/db"
	"codelayout/internal/profile"
)

// ErrCorrupt is returned (wrapped) when a store file exists but cannot be
// trusted: bad magic, failed decode, a missing profile, key mismatch, or
// fingerprint mismatch.
var ErrCorrupt = errors.New("pstore: corrupt entry")

// magic prefixes every store file; bump the version on wire changes so old
// files read as corrupt (and therefore retrain) instead of misdecoding.
const magic = "PSTOREv1\n"

// Key identifies one training run. Spec is the run's training spec: the
// workload's Spec (scale, mix and every knob), then shards, CPUs, processes
// per CPU, fast path, DCPI period, seed, warmup and transaction count (see
// expt's trainSpec). Image fingerprints the exact program images the
// profile's block IDs index, because a profile applied to a differently
// built image would be silently wrong, not just stale. Entries written under
// an earlier spelling, which named the workload only, are never matched: each
// retrains once.
type Key struct {
	Spec  string
	Image string
}

// Filename returns the content-hashed basename for the key: profiles for
// arbitrarily long spec strings map to fixed-size names, and distinct specs
// cannot collide by truncation.
func (k Key) Filename() string {
	h := sha256.Sum256([]byte(k.Spec + "\x00" + k.Image))
	return hex.EncodeToString(h[:]) + ".pstore"
}

// Entry is one stored training run.
type Entry struct {
	Spec      string
	Image     string
	CreatedAt time.Time
	// KindFreq is the normalized transaction-kind mix observed while
	// training; the drift detector compares the live mix against it.
	KindFreq map[string]float64
	// Fields is the field-access profile harvested from the training run
	// (table → field → read/write tallies) — the record-layout pass's
	// training signal; a table training never touched has no tallies.
	Fields map[string]map[string]db.FieldAccess
	// The run's Pixie profiles of the app and kernel and its DCPI-style
	// sampling profile of the app. An entry needs all three: Put refuses one
	// without and ReadEntry reports it as ErrCorrupt.
	App  *profile.Profile
	Kern *profile.Profile
	DCPI *profile.Profile
}

// Key returns the entry's store key.
func (e *Entry) Key() Key { return Key{Spec: e.Spec, Image: e.Image} }

// Age returns how long ago the entry was trained.
func (e *Entry) Age(now time.Time) time.Duration { return now.Sub(e.CreatedAt) }

// wireEntry is the on-disk form. The kind mix is flattened to parallel
// slices (gob map order is random) and each profile carries its fingerprint
// so bit rot inside a structurally valid gob stream is still caught.
type wireEntry struct {
	Spec      string
	Image     string
	CreatedAt time.Time
	KindNames []string
	KindFreqs []float64
	// The field-access profile, flattened to parallel slices sorted by key
	// (gob map order is random): FieldKeys[i] is "table\x00field". An empty
	// profile decodes to a nil Entry.Fields.
	FieldKeys   []string
	FieldReads  []uint64
	FieldWrites []uint64
	App         *profile.Profile
	Kern        *profile.Profile
	DCPI        *profile.Profile
	AppFP       uint64
	KernFP      uint64
	DCPIFP      uint64
}

// flattenFreq turns a kind-frequency map into the wire form's sorted
// names and their frequencies.
func flattenFreq(freq map[string]float64) ([]string, []float64) {
	if len(freq) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(freq))
	for name := range freq {
		names = append(names, name)
	}
	sort.Strings(names)
	vals := make([]float64, len(names))
	for i, name := range names {
		vals[i] = freq[name]
	}
	return names, vals
}

// flattenFields turns a field-access profile into the wire form's sorted
// parallel slices.
func flattenFields(fields map[string]map[string]db.FieldAccess) (keys []string, reads, writes []uint64) {
	for table, fs := range fields {
		for name := range fs {
			keys = append(keys, table+"\x00"+name)
		}
	}
	sort.Strings(keys)
	reads = make([]uint64, len(keys))
	writes = make([]uint64, len(keys))
	for i, k := range keys {
		cut := strings.IndexByte(k, 0)
		a := fields[k[:cut]][k[cut+1:]]
		reads[i], writes[i] = a.Reads, a.Writes
	}
	return keys, reads, writes
}

// unflattenFields rebuilds the profile map ("" on malformed keys reads as
// corrupt to the caller).
func unflattenFields(keys []string, reads, writes []uint64) (map[string]map[string]db.FieldAccess, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make(map[string]map[string]db.FieldAccess)
	for i, k := range keys {
		cut := strings.IndexByte(k, 0)
		if cut < 0 {
			return nil, fmt.Errorf("field key %q missing separator", k)
		}
		table, name := k[:cut], k[cut+1:]
		if out[table] == nil {
			out[table] = make(map[string]db.FieldAccess)
		}
		out[table][name] = db.FieldAccess{Reads: reads[i], Writes: writes[i]}
	}
	return out, nil
}

// Stats counts store traffic since Open.
type Stats struct {
	Hits      uint64 // Get served from the directory
	Misses    uint64 // Get found nothing usable
	Evictions uint64 // corrupt files removed from disk
}

// Store is a persistent profile store: a directory of entry files plus the
// traffic counters of this handle. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
}

// Open returns a store over dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("pstore: open: no directory given")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// count applies one update to the traffic counters.
func (s *Store) count(update func(*Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	update(&s.stats)
}

// Get returns the stored entry for k, read from the backing directory.
// Corrupt files are deleted and counted as evictions; every failure mode
// degrades to (nil, false) — a miss.
func (s *Store) Get(k Key) (*Entry, bool) {
	path := filepath.Join(s.dir, k.Filename())
	e, err := ReadEntry(path)
	switch {
	case err == nil && e.Key() == k:
		s.count(func(st *Stats) { st.Hits++ })
		return e, true
	case errors.Is(err, os.ErrNotExist):
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	default:
		// Corrupt (or valid bytes filed under the wrong name, which is the
		// same betrayal): evict the file and retrain.
		os.Remove(path)
		s.count(func(st *Stats) { st.Evictions++; st.Misses++ })
		return nil, false
	}
}

// Put persists the entry atomically (write to a temp file in the same
// directory, fsync, rename). A write failure is returned; callers for whom
// persistence is best-effort drop the error.
func (s *Store) Put(e *Entry) error {
	if e.App == nil || e.Kern == nil || e.DCPI == nil {
		return fmt.Errorf("pstore: put %s: entry missing its app, kernel or DCPI profile", e.Spec)
	}
	if err := s.writeFile(e); err != nil {
		return fmt.Errorf("pstore: put %s: %w", e.Spec, err)
	}
	return nil
}

func (s *Store) writeFile(e *Entry) error {
	tmp, err := os.CreateTemp(s.dir, ".pstore-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	if err := encodeEntry(bw, e); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(s.dir, e.Key().Filename()))
}

func encodeEntry(w *bufio.Writer, e *Entry) error {
	if _, err := w.WriteString(magic); err != nil {
		return err
	}
	we := wireEntry{
		Spec:      e.Spec,
		Image:     e.Image,
		CreatedAt: e.CreatedAt.UTC(),
		App:       e.App,
		Kern:      e.Kern,
		DCPI:      e.DCPI,
		AppFP:     e.App.Fingerprint(),
		KernFP:    e.Kern.Fingerprint(),
		DCPIFP:    e.DCPI.Fingerprint(),
	}
	we.KindNames, we.KindFreqs = flattenFreq(e.KindFreq)
	we.FieldKeys, we.FieldReads, we.FieldWrites = flattenFields(e.Fields)
	return gob.NewEncoder(w).Encode(&we)
}

// ReadEntry decodes one store file, verifying the magic header and the
// embedded profile fingerprints. Any mismatch returns an error wrapping
// ErrCorrupt; a missing file returns the underlying os.ErrNotExist.
func ReadEntry(path string) (*Entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(raw, []byte(magic)) {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	var we wireEntry
	if err := gob.NewDecoder(bytes.NewReader(raw[len(magic):])).Decode(&we); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if we.App == nil || we.Kern == nil || we.DCPI == nil {
		return nil, fmt.Errorf("%w: %s: missing profile payload", ErrCorrupt, filepath.Base(path))
	}
	if we.App.Fingerprint() != we.AppFP || we.Kern.Fingerprint() != we.KernFP || we.DCPI.Fingerprint() != we.DCPIFP {
		return nil, fmt.Errorf("%w: %s: profile fingerprint mismatch", ErrCorrupt, filepath.Base(path))
	}
	if len(we.KindNames) != len(we.KindFreqs) {
		return nil, fmt.Errorf("%w: %s: kind mix length mismatch", ErrCorrupt, filepath.Base(path))
	}
	if len(we.FieldKeys) != len(we.FieldReads) || len(we.FieldKeys) != len(we.FieldWrites) {
		return nil, fmt.Errorf("%w: %s: field profile length mismatch", ErrCorrupt, filepath.Base(path))
	}
	e := &Entry{
		Spec:      we.Spec,
		Image:     we.Image,
		CreatedAt: we.CreatedAt,
		App:       we.App,
		Kern:      we.Kern,
		DCPI:      we.DCPI,
	}
	if len(we.KindNames) > 0 {
		e.KindFreq = make(map[string]float64, len(we.KindNames))
		for i, name := range we.KindNames {
			e.KindFreq[name] = we.KindFreqs[i]
		}
	}
	fields, err := unflattenFields(we.FieldKeys, we.FieldReads, we.FieldWrites)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	e.Fields = fields
	return e, nil
}
