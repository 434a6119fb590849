package workload_test

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/shard"
	"codelayout/internal/workload"
)

// imageKeys is the partition-key space the test loader spreads over the
// engines.
const imageKeys = 64

// kvShard is one engine's share of the test database: the keys its loader
// stored, each as one row, and the rows' IDs.
type kvShard struct {
	eng  *db.Engine
	keys []uint64
	rids []db.RID
}

// kvLoader loads every key own accepts as an 8-byte row of table "kv" and
// appends each engine it was handed to *loaded. With fail set it loads
// nothing and errors.
func kvLoader(loaded *[]*db.Engine, fail bool) func(*db.Engine, func(uint64) bool) (kvShard, error) {
	return func(eng *db.Engine, own func(uint64) bool) (kvShard, error) {
		*loaded = append(*loaded, eng)
		if fail {
			return kvShard{}, errors.New("load failed")
		}
		eng.CreateTable("kv")
		s := eng.NewSession(0, nil)
		b := kvShard{eng: eng}
		for k := uint64(0); k < imageKeys; k++ {
			if own(k) {
				row := binary.LittleEndian.AppendUint64(nil, k)
				b.keys = append(b.keys, k)
				b.rids = append(b.rids, eng.Table("kv").Insert(s, row))
			}
		}
		eng.Checkpoint()
		return b, nil
	}
}

func bindKV(b kvShard, eng *db.Engine) kvShard {
	b.eng = eng
	return b
}

func kvEngines(n int) []*db.Engine {
	engs := make([]*db.Engine, n)
	for i := range engs {
		engs[i] = db.NewEngine(db.Config{BufferPoolPages: 64, Shard: i})
	}
	return engs
}

// checkShards verifies that shards[i] is bound to engs[i], holds exactly the
// keys shard.Map gives shard i, and that engs[i] holds those rows.
func checkShards(t *testing.T, shards []kvShard, engs []*db.Engine) {
	t.Helper()
	if len(shards) != len(engs) {
		t.Fatalf("%d shards for %d engines", len(shards), len(engs))
	}
	m := shard.Map{Shards: len(engs)}
	for i, b := range shards {
		var want []uint64
		for k := uint64(0); k < imageKeys; k++ {
			if m.Of(k) == i {
				want = append(want, k)
			}
		}
		if !slices.Equal(b.keys, want) {
			t.Fatalf("shard %d of %d owns %v, want %v", i, len(engs), b.keys, want)
		}
		if b.eng != engs[i] {
			t.Fatalf("shard %d is bound to another engine", i)
		}
		s := engs[i].NewSession(0, nil)
		for j, rid := range b.rids {
			if got := binary.LittleEndian.Uint64(engs[i].Table("kv").Fetch(s, rid)); got != b.keys[j] {
				t.Fatalf("shard %d row %d reads key %d, want %d", i, j, got, b.keys[j])
			}
		}
	}
}

// TestImagesLoadsOnceAndCopies: the first Load of a key runs the loader once
// per engine, on that engine, with own accepting exactly the engine's
// partition; later Loads of the key and geometry run no loader and return
// shards bound to their own engines holding the same rows; another shard
// count is another key.
func TestImagesLoadsOnceAndCopies(t *testing.T) {
	var imgs workload.Images[kvShard]
	var loaded []*db.Engine

	first := kvEngines(3)
	shards, err := imgs.Load("kv", first, kvLoader(&loaded, false), bindKV)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded, first) {
		t.Fatalf("first Load ran the loader on %d engines, want each of the 3 once", len(loaded))
	}
	checkShards(t, shards, first)

	second := kvEngines(3)
	shards, err = imgs.Load("kv", second, kvLoader(&loaded, false), bindKV)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Fatalf("second Load of one key ran the loader %d more times", len(loaded)-3)
	}
	checkShards(t, shards, second)

	two := kvEngines(2)
	shards, err = imgs.Load("kv", two, kvLoader(&loaded, false), bindKV)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded[3:], two) {
		t.Fatalf("a 2-engine Load after a 3-engine one ran the loader on %d engines, want each of the 2", len(loaded)-3)
	}
	checkShards(t, shards, two)
}

// TestImagesFailedLoadLeavesKeyUnloaded: a loader error is returned and
// keeps no template, so the next Load of the key runs the loader again.
func TestImagesFailedLoadLeavesKeyUnloaded(t *testing.T) {
	var imgs workload.Images[kvShard]
	var loaded []*db.Engine
	if _, err := imgs.Load("kv", kvEngines(2), kvLoader(&loaded, true), bindKV); err == nil {
		t.Fatal("a failing loader's error was lost")
	}
	loaded = nil
	engs := kvEngines(2)
	shards, err := imgs.Load("kv", engs, kvLoader(&loaded, false), bindKV)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded, engs) {
		t.Fatalf("the Load after a failed one ran the loader on %d engines, want each of the 2", len(loaded))
	}
	checkShards(t, shards, engs)
}
