package workload

import (
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
)

// TestMixedDirtyReadFanOutExact is the mixed-level determinism gate: the
// Degree 1 writer vs CS/RR/SER readers scenario must produce exactly the
// same counts on every run, at any GOMAXPROCS (CI runs this package with
// GOMAXPROCS=1) and any lock-table stripe count, including under -race.
func TestMixedDirtyReadFanOutExact(t *testing.T) {
	const rounds = 20
	for _, shards := range []int{1, 4, 16} {
		db := locking.NewDB(locking.WithShards(shards))
		res, err := MixedDirtyReadFanOut(db, rounds)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.DirtyReads != rounds {
			t.Errorf("shards=%d: dirty reads = %d, want %d (the RU witness must see every uncommitted write)",
				shards, res.DirtyReads, rounds)
		}
		if want := 3 * rounds; res.BlockedReads != want {
			t.Errorf("shards=%d: blocked reads = %d, want %d (CS, RR and SER must block every round)",
				shards, res.BlockedReads, want)
		}
		if want := 3 * rounds; res.RestoredReads != want {
			t.Errorf("shards=%d: restored reads = %d, want %d (no locked level may see the rolled-back value)",
				shards, res.RestoredReads, want)
		}
	}
}

// TestHotspotCounterLockstepLevels drives mixed SNAPSHOT ISOLATION and
// READ CONSISTENCY sessions against one hot row of the mv engine.
// The barrier guarantees read-write overlap every round; RC sessions
// (first-writer-wins) always commit, SI sessions commit only when they
// win first-committer-wins against the round's other committers.
func TestHotspotCounterLockstepLevels(t *testing.T) {
	const rounds = 25
	levels := []engine.Level{
		engine.SnapshotIsolation, engine.SnapshotIsolation,
		engine.ReadConsistency, engine.ReadConsistency,
	}
	db := mvcc.NewDB()
	m := HotspotCounterLockstep(db, levels, rounds)
	attempts := int64(len(levels) * rounds)
	if m.Commits+m.Aborts != attempts {
		t.Fatalf("commits %d + aborts %d != attempts %d", m.Commits, m.Aborts, attempts)
	}
	if m.Errors != 0 {
		t.Fatalf("unexpected errors: %d", m.Errors)
	}
	// The RC sessions never abort (their writes block instead), so at
	// least half the attempts commit; every abort is an SI session losing
	// first-committer-wins.
	if minCommits := int64(2 * rounds); m.Commits < minCommits {
		t.Errorf("commits = %d, want >= %d (RC sessions must always commit)", m.Commits, minCommits)
	}
	counter := db.ReadCommittedRow("hot").Val()
	if counter < 1 || counter > m.Commits {
		t.Errorf("counter = %d, commits = %d: conservation violated", counter, m.Commits)
	}
}
