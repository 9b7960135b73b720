// Terminated-transaction audit: every engine family must answer Commit or
// Abort on an already-terminated transaction with engine.ErrTxDone — never
// a panic, never a silent success. The server's session teardown
// unconditionally aborts whatever transaction a dropped connection left
// behind, including transactions the scheduler already killed (deadlock
// victims, failed First-Committer-Wins commits), so this contract must be
// uniform across families.
package engine_test

import (
	"errors"
	"runtime"
	"testing"

	"isolevel/internal/anomalies"
	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
)

// families lists one constructor per engine configuration with the level
// its transactions run at. "snapshot" and "oraclerc" are the engines
// anomalies.NewDBFor builds for those levels: the one multiversion
// engine, reached through the level dispatcher.
func families() map[string]struct {
	db    engine.DB
	level engine.Level
} {
	return map[string]struct {
		db    engine.DB
		level engine.Level
	}{
		"locking-predicate": {locking.NewDB(), engine.Serializable},
		"locking-keyrange":  {locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange)), engine.Serializable},
		"mvcc-si":           {mvcc.NewDB(), engine.SnapshotIsolation},
		"mvcc-rc":           {mvcc.NewDB(), engine.ReadConsistency},
		"snapshot":          {anomalies.NewDBFor(engine.SnapshotIsolation), engine.SnapshotIsolation},
		"oraclerc":          {anomalies.NewDBFor(engine.ReadConsistency), engine.ReadConsistency},
	}
}

func wantTxDone(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, engine.ErrTxDone) {
		t.Errorf("%s on terminated tx = %v, want ErrTxDone", op, err)
	}
}

// TestTerminatedTxUniform drives every family through the four
// terminate-then-terminate-again orders plus data operations on a dead
// transaction.
func TestTerminatedTxUniform(t *testing.T) {
	for name, f := range families() {
		t.Run(name, func(t *testing.T) {
			f.db.Load(data.Tuple{Key: "x", Row: data.Scalar(1)})

			// Commit, then Commit/Abort again.
			tx, err := f.db.Begin(f.level)
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			if err := engine.PutVal(tx, "x", 2); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			wantTxDone(t, "second Commit", tx.Commit())
			wantTxDone(t, "Abort after Commit", tx.Abort())

			// Abort, then Abort/Commit again.
			tx, err = f.db.Begin(f.level)
			if err != nil {
				t.Fatalf("Begin: %v", err)
			}
			if err := engine.PutVal(tx, "x", 3); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := tx.Abort(); err != nil {
				t.Fatalf("Abort: %v", err)
			}
			wantTxDone(t, "second Abort", tx.Abort())
			wantTxDone(t, "Commit after Abort", tx.Commit())

			// Data operations on a terminated transaction.
			if _, err := tx.Get("x"); !errors.Is(err, engine.ErrTxDone) {
				t.Errorf("Get on terminated tx = %v, want ErrTxDone", err)
			}
			wantTxDone(t, "Put", tx.Put("x", data.Scalar(4)))
			wantTxDone(t, "Delete", tx.Delete("x"))
		})
	}
}

// TestTxDoneAfterFailedFCWCommit: a Snapshot Isolation commit that loses
// First-Committer-Wins terminates the transaction — the teardown Abort that
// follows must report ErrTxDone, not succeed a second time.
func TestTxDoneAfterFailedFCWCommit(t *testing.T) {
	for _, name := range []string{"mvcc-si", "snapshot"} {
		t.Run(name, func(t *testing.T) {
			db := families()[name].db
			db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)})
			t1, err := db.Begin(engine.SnapshotIsolation)
			if err != nil {
				t.Fatalf("Begin t1: %v", err)
			}
			t2, err := db.Begin(engine.SnapshotIsolation)
			if err != nil {
				t.Fatalf("Begin t2: %v", err)
			}
			if err := engine.PutVal(t1, "x", 1); err != nil {
				t.Fatalf("t1 Put: %v", err)
			}
			if err := engine.PutVal(t2, "x", 2); err != nil {
				t.Fatalf("t2 Put: %v", err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatalf("t1 Commit: %v", err)
			}
			if err := t2.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
				t.Fatalf("t2 Commit = %v, want ErrWriteConflict", err)
			}
			wantTxDone(t, "Abort after failed FCW Commit", t2.Abort())
			wantTxDone(t, "Commit retry after failed FCW Commit", t2.Commit())
		})
	}
}

// TestTxDoneAfterDeadlockVictim: a deadlock victim's transaction is NOT
// terminated by the error itself — the caller owns the Abort (one Abort
// succeeds, releasing the locks; the second reports ErrTxDone).
func TestTxDoneAfterDeadlockVictim(t *testing.T) {
	db := locking.NewDB()
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)}, data.Tuple{Key: "y", Row: data.Scalar(0)})
	t1, err := db.Begin(engine.Serializable)
	if err != nil {
		t.Fatalf("Begin t1: %v", err)
	}
	t2, err := db.Begin(engine.Serializable)
	if err != nil {
		t.Fatalf("Begin t2: %v", err)
	}
	if err := engine.PutVal(t1, "x", 1); err != nil {
		t.Fatalf("t1 Put x: %v", err)
	}
	if err := engine.PutVal(t2, "y", 1); err != nil {
		t.Fatalf("t2 Put y: %v", err)
	}
	t1done := make(chan error, 1)
	go func() { t1done <- engine.PutVal(t1, "y", 2) }()
	// Wait for t1 to actually block (the waits counter increments at
	// enqueue, before the requester parks), so t2 is the one that closes
	// the cycle — and, under requester-is-victim, the victim.
	for i := 0; db.LockStats().Waits == 0; i++ {
		if i > 1_000_000 {
			t.Fatal("t1 never blocked on y")
		}
		runtime.Gosched()
	}
	if err := engine.PutVal(t2, "x", 2); !errors.Is(err, engine.ErrDeadlock) {
		t.Fatalf("t2 Put x = %v, want ErrDeadlock", err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatalf("victim Abort: %v", err)
	}
	wantTxDone(t, "victim second Abort", t2.Abort())
	wantTxDone(t, "victim Commit after Abort", t2.Commit())
	if err := <-t1done; err != nil {
		t.Fatalf("t1 Put y after victim released: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 Commit: %v", err)
	}
}
