// Package ycsb implements a YCSB-style point-read key-value workload over
// the internal/db storage engine: a 95/5 read/update mix over one user
// table. Reads run outside any transaction — a B-tree point search plus a
// heap fetch under page latches only — and updates touch a single row, so
// the workload presents the layout passes with an icache profile dominated
// by bt_search/buf_get with near-zero log and lock-manager pressure: the
// opposite corner of the profile space from the commit- and lock-heavy
// banking and order-entry mixes, which is exactly what the cross-workload
// robustness experiments need.
package ycsb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"codelayout/internal/db"
)

// Scale configures database size.
type Scale struct {
	// Records is the user-table row count.
	Records int
}

// DefaultScale sizes the key-value store in the same spirit as the paper's
// scaled TPC-B database: large enough that the B-tree has real height and
// the buffer pool behaves like a cached OLTP store.
func DefaultScale() Scale { return Scale{Records: 120_000} }

// Spec spells the scale, the part of Workload.Spec the loaded store depends
// on ("r120000").
func (sc Scale) Spec() string { return fmt.Sprintf("r%d", sc.Records) }

// lockSpaceUser keys user-row locks, disjoint from the other workloads'
// lock spaces.
const lockSpaceUser = 20

const rowBytes = 100

// DefaultReadPct is the point-read share of the mix (the YCSB-B shape).
const DefaultReadPct = 95

// Kind selects the operation type.
type Kind int

const (
	// Read fetches one record by key, outside any transaction.
	Read Kind = iota
	// Update rewrites one record's value field inside a transaction.
	Update
)

// Input is one request from a client.
type Input struct {
	Kind Kind
	Key  uint64
	// Key2 is the second key of a scatter read (multi-engine runs with a
	// cross-shard fraction configured); MultiGet reports whether it is set.
	Key2     uint64
	MultiGet bool
}

// Schemas returns the per-table field schemas: key, version and value are
// the live fields (version and value are what every operation actually
// touches), the filler models the wide cold payload a real user row carries.
func Schemas() map[string][]db.FieldDef {
	return map[string][]db.FieldDef{"usertable": db.PackFields(
		db.FieldDef{Name: "key", Width: 8},
		db.FieldDef{Name: "version", Width: 8},
		db.FieldDef{Name: "value", Width: 8},
		db.FieldDef{Name: "filler", Width: rowBytes - 24},
	)}
}

// rowOffsets caches the resolved byte offsets of the live fields under
// whatever layout (interleaved or grouped) the engine installed.
type rowOffsets struct{ key, version, value int }

func resolveOffsets(t *db.Table) rowOffsets {
	return rowOffsets{
		key:     t.FieldOffset("key"),
		version: t.FieldOffset("version"),
		value:   t.FieldOffset("value"),
	}
}

func encodeRow(o rowOffsets, key, version uint64, value int64) []byte {
	row := make([]byte, rowBytes)
	binary.LittleEndian.PutUint64(row[o.key:], key)
	binary.LittleEndian.PutUint64(row[o.version:], version)
	binary.LittleEndian.PutUint64(row[o.value:], uint64(value))
	return row
}

func (o rowOffsets) rowVersion(row []byte) uint64 { return binary.LittleEndian.Uint64(row[o.version:]) }
func (o rowOffsets) rowSetVersion(row []byte, v uint64) {
	binary.LittleEndian.PutUint64(row[o.version:], v)
}
func (o rowOffsets) rowValue(row []byte) int64 {
	return int64(binary.LittleEndian.Uint64(row[o.value:]))
}
func (o rowOffsets) rowSetValue(row []byte, v int64) {
	binary.LittleEndian.PutUint64(row[o.value:], uint64(v))
}

// delta is the deterministic increment the k-th update applies to a record:
// the invariant checker replays it, so a record's value is fully determined
// by its key and version — no cross-record coupling, hence no global lock
// traffic, but still a real consistency audit.
func delta(key, version uint64) int64 {
	return int64((key*0x9E3779B9 + version*40503) % 997)
}

// expectedValue replays every update a record has seen.
func expectedValue(key, version uint64) int64 {
	var total int64
	for k := uint64(1); k <= version; k++ {
		total += delta(key, k)
	}
	return total
}

// Bench is a loaded key-value store.
type Bench struct {
	Eng     *db.Engine
	Scale   Scale
	ReadPct int
	// ShiftAfterGens/ShiftReadPct force mid-run drift: after ShiftAfterGens
	// generated requests the read share becomes ShiftReadPct (see
	// Workload.ShiftAfterGens). gens counts requests drawn so far.
	ShiftAfterGens int
	ShiftReadPct   int
	gens           int

	UserTable *db.Table
	Users     *db.BTree

	off rowOffsets

	// Zipfian key-skew state (SetZipfTheta); zipfN == 0 means uniform keys.
	zipfN     int
	zipfAlpha float64
	zipfEta   float64
	zipfZetan float64
	zipfHalf  float64

	// owned lists the record keys resident in this engine, ascending (one
	// hash partition; every key when the store has a single engine).
	owned []uint64
}

// loadOwned creates one engine's slice of the store — the keys satisfying
// own — through an uninstrumented session and leaves it checkpointed, like
// the TPC-B loader. The scale has passed Workload.validate; Load sets the
// mix knobs.
func loadOwned(eng *db.Engine, sc Scale, own func(key uint64) bool) (*Bench, error) {
	s := eng.NewSession(0, nil)
	eng.CreateTable("usertable")
	eng.CreateBTree("user_pk")
	b := (&Bench{Scale: sc}).bind(eng)
	if err := b.UserTable.EnsureFields(Schemas()["usertable"]); err != nil {
		return nil, err
	}
	b.off = resolveOffsets(b.UserTable)
	for k := 0; k < sc.Records; k++ {
		key := uint64(k)
		if !own(key) {
			continue
		}
		b.owned = append(b.owned, key)
		rid := b.UserTable.Insert(s, encodeRow(b.off, key, 0, 0))
		if err := b.Users.Insert(s, key, rid.Pack()); err != nil {
			return nil, err
		}
	}
	eng.Checkpoint()
	return b, nil
}

// bind returns a copy of b whose engine handles name eng's table and
// B-tree. The owned list is shared: nothing writes it after the load.
func (b *Bench) bind(eng *db.Engine) *Bench {
	c := *b
	c.Eng = eng
	c.UserTable, c.Users = eng.Table("usertable"), eng.BTree("user_pk")
	return &c
}

// SetZipfTheta switches key generation from uniform to the YCSB Zipfian
// generator with parameter theta in (0, 1): popular keys are drawn far more
// often, scattered over the key space by an FNV hash so the hot set does not
// cluster on adjacent pages. theta <= 0 keeps the classic uniform draw — and
// leaves runs bit-identical to a bench that never heard of skew.
func (b *Bench) SetZipfTheta(theta float64) {
	if theta <= 0 {
		b.zipfN = 0
		return
	}
	n := b.Scale.Records
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	b.zipfN = n
	b.zipfZetan = zetan
	b.zipfAlpha = 1 / (1 - theta)
	b.zipfEta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan)
	b.zipfHalf = math.Pow(0.5, theta)
}

// scatterKey spreads Zipfian ranks over the key space (FNV-1a), so the hot
// records land on unrelated pages the way popular rows do in a real store.
func scatterKey(rank, n int) uint64 {
	h := uint64(14695981039346656037)
	x := uint64(rank)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h % uint64(n)
}

// genKey draws one key: uniform by default, Zipfian-with-scatter after
// SetZipfTheta.
func (b *Bench) genKey(r *rand.Rand) uint64 {
	if b.zipfN == 0 {
		return uint64(r.Intn(b.Scale.Records))
	}
	u := r.Float64()
	uz := u * b.zipfZetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+b.zipfHalf:
		rank = 1
	default:
		rank = int(float64(b.zipfN) * math.Pow(b.zipfEta*u-b.zipfEta+1, b.zipfAlpha))
		if rank >= b.zipfN {
			rank = b.zipfN - 1
		}
	}
	return scatterKey(rank, b.zipfN)
}

// Gen draws one request: ReadPct% point reads, the rest single-row updates.
// Keys are uniform, or Zipfian after SetZipfTheta. With ShiftAfterGens set,
// requests past that count use ShiftReadPct instead — the forced-drift mode.
func (b *Bench) Gen(r *rand.Rand) Input {
	b.gens++
	pct := b.ReadPct
	if b.ShiftAfterGens > 0 && b.gens > b.ShiftAfterGens {
		pct = b.ShiftReadPct
	}
	in := Input{Key: b.genKey(r)}
	if r.Intn(100) >= pct {
		in.Kind = Update
	}
	return in
}

// Run executes one request on the session.
func (b *Bench) Run(s *db.Session, in Input) {
	if in.Kind == Read {
		b.runRead(s, in.Key)
	} else {
		b.runUpdate(s, in.Key)
	}
}

// runRead executes one point read: a B-tree search and a heap fetch with no
// transaction, no locks and no log traffic — read-committed row reads under
// page latches, the way a key-value GET executes. The fetch touches only the
// live fields (version and value), so the data-cache cost depends on where
// the record layout put them.
func (b *Bench) runRead(s *db.Session, key uint64) {
	s.PB.Enter("ycsb_read")
	defer s.PB.Leave("ycsb_read")
	s.PB.Data(s.ScratchAddr(0), 128, true) // parsed request / reply buffer
	packed, ok := b.Users.Search(s, key)
	if !ok {
		panic(fmt.Sprintf("ycsb: record %d missing", key))
	}
	b.UserTable.FetchFields(s, db.UnpackRID(packed), "version", "value")
	s.PB.Data(s.ScratchAddr(256), 128, true) // materialized value
}

// runUpdate executes one read-modify-write transaction on a single record:
// the only lock acquired is the record's own, and the commit's log force is
// the mix's only log traffic.
func (b *Bench) runUpdate(s *db.Session, key uint64) {
	s.PB.Enter("ycsb_update")
	defer s.PB.Leave("ycsb_update")
	s.PB.Data(s.ScratchAddr(512), 128, true)
	s.Begin()
	packed, ok := b.Users.Search(s, key)
	if !ok {
		panic(fmt.Sprintf("ycsb: record %d missing", key))
	}
	rid := db.UnpackRID(packed)
	s.LockX(db.LockKey(lockSpaceUser, key))
	row := b.UserTable.FetchFields(s, rid, "version", "value")
	v := b.off.rowVersion(row) + 1
	b.off.rowSetVersion(row, v)
	b.off.rowSetValue(row, b.off.rowValue(row)+delta(key, v))
	s.PB.Data(s.ScratchAddr(768), 128, true)
	b.UserTable.UpdateFields(s, rid, row, "version", "value")
	s.Commit()
}

// ReadRecord fetches a record outside the instrumented path (tests and
// verification), returning its version and value.
func (b *Bench) ReadRecord(s *db.Session, key uint64) (version uint64, value int64) {
	packed, ok := b.Users.Search(s, key)
	if !ok {
		panic(fmt.Sprintf("ycsb: record %d missing", key))
	}
	row := b.UserTable.Fetch(s, db.UnpackRID(packed))
	return b.off.rowVersion(row), b.off.rowValue(row)
}

// Check audits this engine's slice in one walk of its B-tree: the keys must
// be exactly the owned ones — none missing, none stray — and every record's
// value must equal the replayed sum of the deterministic per-version deltas.
// A record's state is a pure function of (key, version), so any lost or
// doubled update surfaces.
func (b *Bench) Check(s *db.Session) error {
	var err error
	i := 0
	b.Users.ScanRange(s, 0, math.MaxUint64, func(key, packed uint64) bool {
		switch {
		case i < len(b.owned) && key > b.owned[i]:
			err = fmt.Errorf("ycsb: record %d missing", b.owned[i])
		case i == len(b.owned) || key < b.owned[i]:
			err = fmt.Errorf("ycsb: stray key %d in the index", key)
		default:
			row := b.UserTable.Fetch(s, db.UnpackRID(packed))
			v, got := b.off.rowVersion(row), b.off.rowValue(row)
			if want := expectedValue(key, v); got != want {
				err = fmt.Errorf("ycsb: record %d at version %d has value %d, want %d", key, v, got, want)
			}
		}
		i++
		return err == nil
	})
	if err == nil && i < len(b.owned) {
		err = fmt.Errorf("ycsb: record %d missing", b.owned[i])
	}
	return err
}
