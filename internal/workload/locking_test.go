package workload

import (
	"fmt"
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
)

// The lockstep locking scenarios must be exact at every stripe count —
// including on GOMAXPROCS=1, where the schedule runner (not the Go
// scheduler) provides the interleavings.

func lockingShardCounts() []int { return []int{1, 4, 16} }

func TestReadLockFanInBlocksLongReadLocks(t *testing.T) {
	const readers, rounds = 3, 5
	for _, shards := range lockingShardCounts() {
		for _, level := range []engine.Level{engine.RepeatableRead, engine.Serializable} {
			t.Run(fmt.Sprintf("%s/shards=%d", level, shards), func(t *testing.T) {
				db := locking.NewDB(locking.WithShards(shards))
				res, err := ReadLockFanIn(db, level, readers, rounds)
				if err != nil {
					t.Fatal(err)
				}
				if res.Readers.Commits != readers*rounds || res.Readers.Aborts != 0 {
					t.Fatalf("readers = %+v", res.Readers)
				}
				if res.Writer.Commits != rounds || res.Writer.Aborts != 0 {
					t.Fatalf("writer = %+v", res.Writer)
				}
				if res.WriterBlocked != rounds {
					t.Fatalf("writer blocked %d rounds, want %d", res.WriterBlocked, rounds)
				}
				st := db.LockStats()
				if st.Waits < int64(rounds) {
					t.Fatalf("lock stats recorded %d waits, want >= %d", st.Waits, rounds)
				}
			})
		}
	}
}

func TestReadLockFanInNeverBlocksShortOrSnapshotReads(t *testing.T) {
	const readers, rounds = 3, 4
	cases := []struct {
		name string
		db   engine.DB
		lvl  engine.Level
	}{
		{"READ COMMITTED", locking.NewDB(), engine.ReadCommitted},
		{"SNAPSHOT ISOLATION", mvcc.NewDB(mvcc.WithLevels(engine.SnapshotIsolation)), engine.SnapshotIsolation},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := ReadLockFanIn(c.db, c.lvl, readers, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if res.WriterBlocked != 0 {
				t.Fatalf("writer blocked %d rounds, want 0", res.WriterBlocked)
			}
			if res.Writer.Commits != rounds || res.Readers.Commits != readers*rounds {
				t.Fatalf("commits: writer %+v readers %+v", res.Writer, res.Readers)
			}
		})
	}
}

func TestUpgradeDeadlockStormExactVictimCount(t *testing.T) {
	const sessions, rounds = 4, 6
	for _, shards := range lockingShardCounts() {
		for _, level := range []engine.Level{engine.RepeatableRead, engine.Serializable} {
			t.Run(fmt.Sprintf("%s/shards=%d", level, shards), func(t *testing.T) {
				db := locking.NewDB(locking.WithShards(shards))
				m, err := UpgradeDeadlockStorm(db, level, sessions, rounds)
				if err != nil {
					t.Fatal(err)
				}
				if m.Commits != rounds {
					t.Fatalf("commits = %d, want %d (one survivor per round)", m.Commits, rounds)
				}
				if m.Aborts != rounds*(sessions-1) {
					t.Fatalf("aborts = %d, want %d (requester-is-victim)", m.Aborts, rounds*(sessions-1))
				}
				st := db.LockStats()
				if st.Deadlocks != int64(rounds*(sessions-1)) {
					t.Fatalf("deadlocks = %d, want %d", st.Deadlocks, rounds*(sessions-1))
				}
				if st.Upgrades == 0 {
					t.Fatal("no upgrades counted in an upgrade storm")
				}
				// Every committed increment survives: one per round.
				for r := 0; r < rounds; r++ {
					if got := db.ReadCommittedRow(stormKey(r)).Val(); got != 1 {
						t.Fatalf("round %d counter = %d, want 1", r, got)
					}
				}
			})
		}
	}
}

func TestUpgradeDeadlockStormSnapshotSameShape(t *testing.T) {
	const sessions, rounds = 4, 6
	db := mvcc.NewDB(mvcc.WithLevels(engine.SnapshotIsolation))
	m, err := UpgradeDeadlockStorm(db, engine.SnapshotIsolation, sessions, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Commits != rounds || m.Aborts != rounds*(sessions-1) {
		t.Fatalf("SI storm = %+v, want %d commits / %d aborts", m, rounds, rounds*(sessions-1))
	}
}

func TestPredicateVsItemMixBlocksPhantomsAcrossStripes(t *testing.T) {
	const writers, rounds = 4, 3
	wantMatching := rounds * ((writers + 1) / 2)
	for _, shards := range lockingShardCounts() {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := locking.NewDB(locking.WithShards(shards))
			res, err := PredicateVsItemMix(db, engine.Serializable, writers, rounds)
			if err != nil {
				t.Fatal(err)
			}
			if res.MatchingInserts != wantMatching {
				t.Fatalf("matching inserts = %d, want %d", res.MatchingInserts, wantMatching)
			}
			if res.BlockedInserts != wantMatching {
				t.Fatalf("blocked inserts = %d, want %d (every phantom must wait)", res.BlockedInserts, wantMatching)
			}
			if res.Scanner.Commits != rounds || res.Writers.Commits != writers*rounds {
				t.Fatalf("commits: scanner %+v writers %+v", res.Scanner, res.Writers)
			}
			if res.Scanner.Aborts != 0 || res.Writers.Aborts != 0 {
				t.Fatalf("aborts: scanner %+v writers %+v", res.Scanner, res.Writers)
			}
			st := db.LockStats()
			if st.PredGrants < int64(rounds) {
				t.Fatalf("pred grants = %d, want >= %d", st.PredGrants, rounds)
			}
		})
	}
}

func TestPredicateVsItemMixWeakLevelsAdmitPhantoms(t *testing.T) {
	const writers, rounds = 4, 3
	db := locking.NewDB()
	res, err := PredicateVsItemMix(db, engine.RepeatableRead, writers, rounds)
	if err != nil {
		t.Fatal(err)
	}
	// REPEATABLE READ's predicate locks are short: phantoms never wait.
	if res.BlockedInserts != 0 {
		t.Fatalf("blocked inserts = %d, want 0 at REPEATABLE READ", res.BlockedInserts)
	}
	if res.Scanner.Commits != rounds || res.Writers.Commits != writers*rounds {
		t.Fatalf("commits: scanner %+v writers %+v", res.Scanner, res.Writers)
	}
}
