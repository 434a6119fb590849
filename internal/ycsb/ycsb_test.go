package ycsb_test

import (
	"math/rand"
	"testing"
	"time"

	"codelayout/internal/db"
	"codelayout/internal/workload"
	"codelayout/internal/ycsb"
)

func smallScale() ycsb.Scale { return ycsb.Scale{Records: 800} }

// newEngines returns n fresh engines, engine i on shard i.
func newEngines(n int) []*db.Engine {
	engs := make([]*db.Engine, n)
	for i := range engs {
		engs[i] = db.NewEngine(db.Config{BufferPoolPages: 8192, Shard: i})
	}
	return engs
}

// loadOn loads w across n engines.
func loadOn(t *testing.T, w *ycsb.Workload, n int) (*ycsb.Instance, []*db.Engine) {
	t.Helper()
	engs := newEngines(n)
	inst, err := w.Load(engs)
	if err != nil {
		t.Fatal(err)
	}
	return inst.(*ycsb.Instance), engs
}

// load returns the one engine's bench of a single-engine load.
func load(t *testing.T, sc ycsb.Scale, readPct int) (*ycsb.Bench, *db.Session) {
	t.Helper()
	w := ycsb.NewScaled(sc)
	w.ReadPct = readPct
	inst, engs := loadOn(t, w, 1)
	return inst.Shards[0], engs[0].NewSession(1, nil)
}

func TestLoadPopulates(t *testing.T) {
	b, s := load(t, smallScale(), -1)
	if got := b.Users.Count(s); got != 800 {
		t.Fatalf("records = %d", got)
	}
	if b.ReadPct != ycsb.DefaultReadPct {
		t.Fatalf("readPct = %d, want default %d", b.ReadPct, ycsb.DefaultReadPct)
	}
	if err := b.Users.Validate(s); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(s); err != nil {
		t.Fatal(err)
	}
}

func TestMixKeepsInvariants(t *testing.T) {
	b, s := load(t, smallScale(), -1)
	r := rand.New(rand.NewSource(1))
	reads, updates := 0, 0
	for i := 0; i < 2000; i++ {
		in := b.Gen(r)
		b.Run(s, in)
		if in.Kind == ycsb.Read {
			reads++
		} else {
			updates++
		}
	}
	if reads == 0 || updates == 0 {
		t.Fatalf("mix degenerate: %d reads, %d updates", reads, updates)
	}
	// The mix must actually be read-dominated with near-zero log traffic:
	// only updates commit (and therefore force the log).
	if frac := float64(reads) / 2000; frac < 0.90 || frac > 0.99 {
		t.Fatalf("read fraction %.3f outside the 95/5 band", frac)
	}
	if b.Eng.Committed != uint64(updates) {
		t.Fatalf("committed = %d, updates = %d (reads must not open transactions)", b.Eng.Committed, updates)
	}
	if b.Eng.WAL.Flushes > uint64(updates)+1 { // +1: the load checkpoint
		t.Fatalf("log flushes %d exceed update count %d", b.Eng.WAL.Flushes, updates)
	}
	if err := b.Check(s); err != nil {
		t.Fatal(err)
	}
	if err := b.Users.Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	b, s := load(t, smallScale(), 50)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		b.Run(s, b.Gen(r))
	}
	// Corrupt one record's value behind the workload's back.
	var victim uint64
	for k := uint64(0); k < 800; k++ {
		if v, _ := b.ReadRecord(s, k); v > 0 {
			victim = k
			break
		}
	}
	packed, _ := b.Users.Search(s, victim)
	rid := db.UnpackRID(packed)
	row := b.UserTable.Fetch(s, rid)
	row[16] ^= 0xFF
	b.UserTable.Update(s, rid, row)
	if err := b.Check(s); err == nil {
		t.Fatal("Check missed a corrupted record")
	}
}

func TestWorkloadAdapter(t *testing.T) {
	wl, err := workload.New("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "ycsb" {
		t.Fatalf("name = %q", wl.Name())
	}
	q := wl.QuickScale()
	if q.DataPages() >= wl.DataPages() {
		t.Fatalf("quick scale not smaller: %d vs %d", q.DataPages(), wl.DataPages())
	}
	if q.Name() != "ycsb" {
		t.Fatalf("quick name = %q", q.Name())
	}
	eng := db.NewEngine(db.Config{BufferPoolPages: q.DataPages() + 4096})
	inst, err := q.Load([]*db.Engine{eng})
	if err != nil {
		t.Fatal(err)
	}
	ss := []*db.Session{eng.NewSession(1, nil)}
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		inst.RunTxn(ss, inst.GenInput(r, nil))
	}
	if err := inst.Check(ss); err != nil {
		t.Fatal(err)
	}
}

func TestLabelOverridesName(t *testing.T) {
	w := ycsb.New()
	w.Label = "ycsb50"
	w.ReadPct = 50
	if w.Name() != "ycsb50" {
		t.Fatalf("name = %q", w.Name())
	}
	q := w.QuickScale()
	if q.Name() != "ycsb50" {
		t.Fatalf("quick scale dropped the label: %q", q.Name())
	}
}

// TestReadPctZeroIsPureUpdate is the regression test for the zero-value
// conflation bug: ReadPct: 0 used to silently become DefaultReadPct (95),
// making an explicit pure-update mix impossible. Now 0 is configurable and
// only a negative value selects the default, at every engine count.
func TestReadPctZeroIsPureUpdate(t *testing.T) {
	b, s := load(t, smallScale(), 0)
	if b.ReadPct != 0 {
		t.Fatalf("ReadPct = %d, want 0 (explicit zero must stick)", b.ReadPct)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		in := b.Gen(r)
		if in.Kind != ycsb.Update {
			t.Fatalf("gen %d produced a read under ReadPct=0", i)
		}
		b.Run(s, in)
	}
	if err := b.Check(s); err != nil {
		t.Fatal(err)
	}

	// The workload seam: an explicit 0 survives Load, a negative value means
	// "use the default", and out-of-range values fail fast.
	w := ycsb.NewScaled(smallScale())
	if w.ReadPct != ycsb.DefaultReadPct {
		t.Fatalf("NewScaled ReadPct = %d, want the explicit default %d", w.ReadPct, ycsb.DefaultReadPct)
	}
	w.ReadPct = 120
	if _, err := w.Load(newEngines(1)); err == nil {
		t.Fatal("ReadPct = 120 must fail Load")
	}
	for _, tc := range []struct{ readPct, want int }{{0, 0}, {-1, ycsb.DefaultReadPct}} {
		w.ReadPct = tc.readPct
		inst, _ := loadOn(t, w, 2)
		for i, sb := range inst.Shards {
			if sb.ReadPct != tc.want {
				t.Fatalf("ReadPct %d: shard %d loaded ReadPct = %d, want %d", tc.readPct, i, sb.ReadPct, tc.want)
			}
		}
	}
}

// TestZipfSkewConcentrates checks the Zipfian knob: theta > 0 draws a
// visibly skewed key stream (top key far above the uniform expectation),
// validation rejects out-of-range thetas, and the skewed variant names
// itself distinctly so memo and store keys cannot collide with uniform runs.
func TestZipfSkewConcentrates(t *testing.T) {
	w := ycsb.NewScaled(smallScale())
	w.ZipfTheta = 0.9
	if w.Name() != "ycsb-zipf90" {
		t.Fatalf("name = %q, want ycsb-zipf90", w.Name())
	}
	inst, engs := loadOn(t, w, 1)
	b := inst.Shards[0]
	r := rand.New(rand.NewSource(11))
	counts := map[uint64]int{}
	const draws = 5000
	for i := 0; i < draws; i++ {
		counts[b.Gen(r).Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Uniform expectation over 800 keys is ~6 draws; a 0.9-theta Zipfian's
	// top key should be an order of magnitude above that.
	if max < 60 {
		t.Fatalf("top key drawn %d times in %d draws; Zipfian skew missing", max, draws)
	}
	s := engs[0].NewSession(1, nil)
	for i := 0; i < 500; i++ {
		b.Run(s, b.Gen(r))
	}
	if err := b.Check(s); err != nil {
		t.Fatal(err)
	}

	w.ZipfTheta = 1.0
	if _, err := w.Load(newEngines(1)); err == nil {
		t.Fatal("ZipfTheta = 1.0 must fail Load")
	}
}

func TestShardedPartitionAndScatter(t *testing.T) {
	w := ycsb.NewScaled(smallScale())
	w.CrossShardPct = 30
	sb, engs := loadOn(t, w, 2)
	// Partition is exact and disjoint.
	total := 0
	for i, b := range sb.Shards {
		s := engs[i].NewSession(1, nil)
		n := b.Users.Count(s)
		if n == 0 {
			t.Fatalf("shard %d empty", i)
		}
		total += n
	}
	if total != smallScale().Records {
		t.Fatalf("union of shards holds %d records, want %d", total, smallScale().Records)
	}
	ss := []*db.Session{engs[0].NewSession(1, nil), engs[1].NewSession(1, nil)}
	r := rand.New(rand.NewSource(5))
	scatter := 0
	for i := 0; i < 1500; i++ {
		in := sb.GenInput(r, nil)
		if sb.Route(in).Remote {
			scatter++
		}
		sb.RunTxn(ss, in)
	}
	if scatter == 0 {
		t.Fatal("no scatter reads generated with CrossShardPct=30")
	}
	// Scatter reads are read-only: no engine ever saw a distributed commit.
	for i, e := range engs {
		for rec := range e.WAL.All() {
			if rec.Kind == db.LogPrepare {
				t.Fatalf("shard %d logged a prepare — ycsb must never 2PC", i)
			}
		}
	}
	check := []*db.Session{engs[0].NewSession(2, nil), engs[1].NewSession(2, nil)}
	if err := sb.Check(check); err != nil {
		t.Fatal(err)
	}
}

// TestScatterDrawNeedsARemoteKey is the regression test for the scatter
// read's rejection loop: it sampled keys until one hashed off the home
// shard, which never terminates when the home shard owns the whole keyspace
// — one engine, or a keyspace that lands on one shard. Such reads must stay
// point reads and leave the RNG where the per-engine generator leaves it.
func TestScatterDrawNeedsARemoteKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		engines int
		records int
	}{
		{"one engine", 1, 800},
		{"two engines, one record", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := ycsb.NewScaled(ycsb.Scale{Records: tc.records})
			w.CrossShardPct = 100
			inst, _ := loadOn(t, w, tc.engines)
			done := make(chan struct{})
			go func() {
				defer close(done)
				r, plain := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
				for i := 0; i < 500; i++ {
					in := inst.GenInput(r, nil)
					if rt := inst.Route(in); rt.Remote || rt.Kind == "mget" {
						t.Errorf("draw %d: scatter read %+v with no remote key to read", i, in)
						return
					}
					if want := inst.Shards[0].Gen(plain); *in.(*ycsb.Input) != want {
						t.Errorf("draw %d: got %+v, want the per-engine draw %+v", i, in, want)
						return
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("GenInput never returned: scatter draw spinning for a remote key that does not exist")
			}
		})
	}
}
