package shard_test

import (
	"testing"

	"codelayout/internal/db"
	"codelayout/internal/probe"
	"codelayout/internal/shard"
)

func TestMapDeterministicAndInRange(t *testing.T) {
	m := shard.Map{Shards: 4}
	for key := uint64(0); key < 1000; key++ {
		s := m.Of(key)
		if s < 0 || s >= 4 {
			t.Fatalf("Of(%d) = %d out of range", key, s)
		}
		if s != m.Of(key) {
			t.Fatalf("Of(%d) not deterministic", key)
		}
	}
	if (shard.Map{Shards: 1}).Of(42) != 0 {
		t.Fatal("single shard must map everything to 0")
	}
	if (shard.Map{}).Of(42) != 0 {
		t.Fatal("zero-value map must map everything to 0")
	}
}

func TestMapSpreadsSmallKeySpaces(t *testing.T) {
	// The workloads partition over small key spaces (branches,
	// warehouses); the hash must not leave every key on one shard.
	for _, shards := range []int{2, 4} {
		m := shard.Map{Shards: shards}
		counts := make([]int, shards)
		for key := uint64(0); key < 10; key++ {
			counts[m.Of(key)]++
		}
		nonEmpty := 0
		for _, c := range counts {
			if c > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 2 {
			t.Fatalf("%d shards: 10 keys all landed on one shard (%v)", shards, counts)
		}
	}
}

// TestCommit2PCCommitsAllParticipants runs a two-engine distributed
// transaction through the coordinator: both branches must be durable, both
// transactions closed, and all locks released.
func TestCommit2PCCommitsAllParticipants(t *testing.T) {
	engA := db.NewEngine(db.Config{BufferPoolPages: 64, Shard: 0})
	engB := db.NewEngine(db.Config{BufferPoolPages: 64, Shard: 1})
	tbA := engA.CreateTable("a")
	tbB := engB.CreateTable("b")
	sa := engA.NewSession(1, nil)
	sb := engB.NewSession(1, nil)
	ridA := tbA.Insert(sa, make([]byte, 32))
	ridB := tbB.Insert(sb, make([]byte, 32))

	sa.Begin()
	sb.Begin()
	sa.LockX(db.LockKey(1, 1))
	sb.LockX(db.LockKey(1, 2))
	tbA.Update(sa, ridA, make([]byte, 32))
	tbB.Update(sb, ridB, make([]byte, 32))
	shard.Commit2PC(sa, sb)

	if sa.Txn() != nil || sb.Txn() != nil {
		t.Fatal("transactions still open after 2PC")
	}
	if engA.Committed != 1 || engB.Committed != 1 {
		t.Fatalf("committed: A=%d B=%d", engA.Committed, engB.Committed)
	}
	// The coordinator's commit is forced; the participant's prepare is
	// forced (its commit record may ride the next flush).
	if engA.WAL.FlushedLSN == 0 || engB.WAL.FlushedLSN == 0 {
		t.Fatalf("logs not forced: A=%d B=%d", engA.WAL.FlushedLSN, engB.WAL.FlushedLSN)
	}
	var prepares, commits int
	for rec := range engB.WAL.All() {
		switch rec.Kind {
		case db.LogPrepare:
			prepares++
		case db.LogCommit:
			commits++
		}
	}
	if prepares != 1 || commits != 1 {
		t.Fatalf("participant log: %d prepares, %d commits", prepares, commits)
	}
	if engB.WAL.FlushedLSN < engB.WAL.CurrentLSN()-1 {
		t.Fatalf("participant prepare not stable: flushed=%d current=%d",
			engB.WAL.FlushedLSN, engB.WAL.CurrentLSN())
	}
}

func TestRouteEmitsNothingWithoutProbe(t *testing.T) {
	// Route must be safe under the no-op probe (load paths, tests).
	shard.Route(probe.Nop{}, 3, true)
	shard.Route(probe.Nop{}, 0, false)
}
