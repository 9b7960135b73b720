package workload

import (
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
)

func TestSnapshotScanStableUnderSI(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 8, 100)
	res := SnapshotScanVsHotWriters(db, engine.SnapshotIsolation, 8, 2, 3, 15)
	if res.TotalScans == 0 {
		t.Fatal("no scans completed")
	}
	if res.UnstableScans != 0 {
		t.Fatalf("SI snapshot scans must be stable: %d/%d unstable", res.UnstableScans, res.TotalScans)
	}
	if res.Scanners.Aborts != 0 || res.Scanners.Errors != 0 {
		t.Fatalf("SI read-only scanners must never abort: %+v", res.Scanners)
	}
	// Exactly one writer wins each round (same FCW arithmetic as the
	// hotspot lockstep).
	if res.Writers.Commits != 15 {
		t.Fatalf("writer commits = %d, want 15", res.Writers.Commits)
	}
	if res.Writers.Aborts != 15*2 {
		t.Fatalf("writer aborts = %d, want 30", res.Writers.Aborts)
	}
}

// Under statement-snapshot Read Consistency the same driver must observe
// unstable scans: each re-scan takes a fresh statement snapshot that
// includes the writer commit the rendezvous guaranteed in between. This
// is §4.3's P2/A5A behavior made deterministic.
func TestSnapshotScanUnstableUnderReadConsistency(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 8, 100)
	res := SnapshotScanVsHotWriters(db, engine.ReadConsistency, 8, 2, 2, 10)
	if res.TotalScans == 0 {
		t.Fatal("no scans completed")
	}
	if res.UnstableScans != res.TotalScans {
		t.Fatalf("RC re-scans should all see the guaranteed interleaved commit: %d/%d unstable",
			res.UnstableScans, res.TotalScans)
	}
}

func TestSkewedTransferPreservesTotalSnapshot(t *testing.T) {
	db := mvcc.NewDB()
	LoadAccounts(db, 16, 100)
	m := SkewedTransfer(db, engine.SnapshotIsolation, 16, 2, 4, 50, 0.8)
	if m.Commits == 0 {
		t.Fatal("no commits")
	}
	if m.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", m)
	}
	if got := TotalBalance(db, 16); got != 16*100 {
		t.Fatalf("total = %d, want %d (FCW must prevent lost updates)", got, 16*100)
	}
}

// Disjoint write sets never conflict: not under first-committer-wins, and
// not under SERIALIZABLE locks at any lock-table stripe count (one stripe
// puts every worker's keys behind one latch, which may serialize them but
// must not make them abort).
func TestBatchIncrementDisjointAllCommit(t *testing.T) {
	const workers, iters, batch = 4, 25, 4
	cases := []struct {
		name  string
		db    engine.DB
		level engine.Level
	}{
		{"SNAPSHOT ISOLATION", mvcc.NewDB(), engine.SnapshotIsolation},
		{"SERIALIZABLE/shards=1", locking.NewDB(locking.WithShards(1)), engine.Serializable},
		{"SERIALIZABLE/shards=64", locking.NewDB(locking.WithShards(64)), engine.Serializable},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			LoadAccounts(c.db, workers*batch, 0)
			m := BatchIncrement(c.db, c.level, workers, iters, batch, true)
			if m.Aborts != 0 || m.Errors != 0 {
				t.Fatalf("disjoint write sets must never conflict: %+v", m)
			}
			if m.Commits != workers*iters {
				t.Fatalf("commits = %d, want %d", m.Commits, workers*iters)
			}
			for w := 0; w < workers; w++ {
				for k := 0; k < batch; k++ {
					if got := c.db.ReadCommittedRow(AccountKey(w*batch + k)).Val(); got != iters {
						t.Fatalf("acct %d = %d, want %d", w*batch+k, got, iters)
					}
				}
			}
		})
	}
}

func TestBatchIncrementContendedStaysExact(t *testing.T) {
	const workers, iters, batch = 4, 15, 3
	db := mvcc.NewDB()
	LoadAccounts(db, batch, 0)
	m := BatchIncrement(db, engine.SnapshotIsolation, workers, iters, batch, false)
	if m.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", m)
	}
	// Every committed batch bumps all batch keys together, so each key
	// must equal the commit count exactly — a torn (half-installed) batch
	// or a lost update would break this.
	for k := 0; k < batch; k++ {
		if got := db.ReadCommittedRow(AccountKey(k)).Val(); got != m.Commits {
			t.Fatalf("acct %d = %d but commits = %d", k, got, m.Commits)
		}
	}
}
