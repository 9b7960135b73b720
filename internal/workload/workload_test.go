package workload

import (
	"errors"
	"runtime"
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
)

func TestTransferPreservesTotalSerializable(t *testing.T) {
	db := locking.NewDB()
	LoadAccounts(db, 8, 100)
	m := Transfer(db, engine.Serializable, 8, 4, 40)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	if m.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", m)
	}
	if got := TotalBalance(db, 8); got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
}

func TestTransferPreservesTotalSnapshot(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 8, 100)
	m := Transfer(db, engine.SnapshotIsolation, 8, 4, 40)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	if got := TotalBalance(db, 8); got != 800 {
		t.Fatalf("total = %d, want 800 (FCW must prevent lost updates)", got)
	}
}

// At READ COMMITTED the same workload can lose updates — the total drifts.
// (Drift is probabilistic; we only assert the workload runs and commits.)
func TestTransferRunsAtReadCommitted(t *testing.T) {
	db := locking.NewDB()
	LoadAccounts(db, 4, 100)
	m := Transfer(db, engine.ReadCommitted, 4, 4, 30)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestReadersVsWritersSnapshotReadersNeverAbort(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 16, 100)
	readers, writers := ReadersVsWriters(db, engine.SnapshotIsolation, 16, 3, 3, 20)
	if readers.Aborts != 0 || readers.Errors != 0 {
		t.Fatalf("SI readers must never abort: %+v", readers)
	}
	if readers.Commits != 3*20 {
		t.Fatalf("reader commits = %d", readers.Commits)
	}
	if writers.Commits == 0 {
		t.Fatal("writers starved")
	}
}

func TestReadersVsWritersLockingCompletes(t *testing.T) {
	db := locking.NewDB()
	LoadAccounts(db, 8, 100)
	readers, writers := ReadersVsWriters(db, engine.Serializable, 8, 2, 2, 10)
	if readers.Commits+readers.Aborts != 2*10 {
		t.Fatalf("reader attempts = %d", readers.Commits+readers.Aborts)
	}
	if writers.Commits+writers.Aborts != 2*10 {
		t.Fatalf("writer attempts = %d", writers.Commits+writers.Aborts)
	}
	if readers.Errors != 0 || writers.Errors != 0 {
		t.Fatalf("unexpected errors: r=%+v w=%+v", readers, writers)
	}
}

func TestHotspotLockingSerializesWithoutLostUpdates(t *testing.T) {
	db := locking.NewDB()
	m := HotspotCounter(db, engine.Serializable, 4, 25)
	final := db.ReadCommittedRow("hot").Val()
	if final != m.Commits {
		t.Fatalf("hot = %d but commits = %d (every committed increment must stick)", final, m.Commits)
	}
}

func TestHotspotSnapshotAbortsButNeverLoses(t *testing.T) {
	// The lockstep driver forces every session's read to happen before any
	// session's commit, so the first-committer-wins outcome is exact on
	// every run — no scheduler luck required, even with GOMAXPROCS=1
	// (the free-running HotspotCounter never overlaps transactions on a
	// single-core host and the FCW path looks dead).
	const sessions, rounds = 8, 50
	db := mvcc.NewDB()
	m := HotspotCounterLockstep(db, sameLevel(engine.SnapshotIsolation, sessions), rounds)
	final := db.ReadCommittedRow("hot").Val()
	if final != m.Commits {
		t.Fatalf("hot = %d but commits = %d", final, m.Commits)
	}
	if m.Commits != rounds {
		t.Fatalf("commits = %d, want exactly %d (one winner per round)", m.Commits, rounds)
	}
	if m.Aborts != rounds*(sessions-1) {
		t.Fatalf("aborts = %d, want exactly %d (every other session loses FCW)", m.Aborts, rounds*(sessions-1))
	}
	if m.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", m)
	}
}

// The free-running hotspot generator keeps its original exactness
// invariant (committed increments never get lost) even though its abort
// count is scheduler-dependent.
func TestHotspotSnapshotFreeRunningNeverLoses(t *testing.T) {
	db := mvcc.NewDB()
	m := HotspotCounter(db, engine.SnapshotIsolation, 8, 50)
	final := db.ReadCommittedRow("hot").Val()
	if final != m.Commits {
		t.Fatalf("hot = %d but commits = %d", final, m.Commits)
	}
}

// Regression for the single-core flake: even when the runtime is pinned to
// one scheduler thread, the deterministic driver must still force
// write-write overlap and observe first-committer-wins aborts.
func TestHotspotLockstepSingleCore(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	db := mvcc.NewDB()
	m := HotspotCounterLockstep(db, sameLevel(engine.SnapshotIsolation, 4), 10)
	if m.Aborts < 1 {
		t.Fatalf("GOMAXPROCS=1 hotspot saw no FCW aborts: %+v", m)
	}
	if m.Commits != 10 || m.Aborts != 30 {
		t.Fatalf("lockstep outcome not exact under GOMAXPROCS=1: %+v", m)
	}
	if got := db.ReadCommittedRow("hot").Val(); got != m.Commits {
		t.Fatalf("hot = %d but commits = %d", got, m.Commits)
	}
}

func TestHotspotOracleRCLosesUpdates(t *testing.T) {
	db := mvcc.NewDB()
	m := HotspotCounter(db, engine.ReadConsistency, 4, 25)
	final := db.ReadCommittedRow("hot").Val()
	// First-writer-wins does not protect the read-modify-write cycle: the
	// counter must not exceed commits, and with contention it usually loses
	// some. We assert only the direction (no phantom increments).
	if final > m.Commits {
		t.Fatalf("hot = %d exceeds commits = %d", final, m.Commits)
	}
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
}

func TestLongRunningUpdaterAbortsUnderSI(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 8, 0)
	committed, err, short := LongRunningUpdater(db, engine.SnapshotIsolation, 8, 3, 20)
	if short.Commits == 0 {
		t.Fatal("short writers starved")
	}
	if committed {
		t.Fatal("the long SI updater should lose first-committer-wins against the hot short writers")
	}
	if err == nil {
		t.Fatal("expected an error from the long transaction")
	}
}

// Under locking, the same scenario either commits the long transaction (by
// blocking the shorts) or kills a participant via deadlock — the paper's
// parenthetical: "this scenario would cause a real problem in locking
// implementations as well". What locking never does is fail the long
// transaction with a first-committer-wins conflict.
func TestLongRunningUpdaterLockingFailureModeIsDeadlockNotFCW(t *testing.T) {
	db := locking.NewDB()
	LoadAccounts(db, 8, 0)
	committed, err, short := LongRunningUpdater(db, engine.Serializable, 8, 2, 5)
	if !committed && !errors.Is(err, engine.ErrDeadlock) {
		t.Fatalf("long locking updater failed with %v; only deadlock is a legitimate locking outcome", err)
	}
	if errors.Is(err, engine.ErrWriteConflict) {
		t.Fatal("locking engines have no first-committer-wins aborts")
	}
	if short.Commits+short.Aborts != 2*5 {
		t.Fatalf("short attempts = %d", short.Commits+short.Aborts)
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Commits: 75, Aborts: 25, WallClock: 1e9}
	if m.AbortRate() != 0.25 {
		t.Fatalf("abort rate = %f", m.AbortRate())
	}
	if m.String() == "" {
		t.Fatal("empty string")
	}
	var zero Metrics
	if zero.AbortRate() != 0 {
		t.Fatal("zero metrics division")
	}
}

// sameLevel is the level assignment of n sessions all at level.
func sameLevel(level engine.Level, n int) []engine.Level {
	levels := make([]engine.Level, n)
	for i := range levels {
		levels[i] = level
	}
	return levels
}
