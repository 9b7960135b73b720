package mvcc

import (
	"errors"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

func beginRC(t *testing.T, db *DB) engine.Tx {
	t.Helper()
	tx, err := db.Begin(engine.ReadConsistency)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestBeginRejectsOtherLevelsRC(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	if _, err := db.Begin(engine.SnapshotIsolation); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("got %v", err)
	}
}

// Statement-level snapshots: each Get sees the latest committed value, so
// reads are NOT repeatable (P2 possible) — unlike SI.
func TestStatementSnapshotsAreFresh(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 50})
	t1 := beginRC(t, db)
	if v, _ := engine.GetVal(t1, "x"); v != 50 {
		t.Fatal("first read")
	}
	t2 := beginRC(t, db)
	_ = engine.PutVal(t2, "x", 10)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.GetVal(t1, "x"); v != 10 {
		t.Fatalf("second statement read = %d, want 10 (fresh statement snapshot)", v)
	}
	_ = t1.Commit()
}

// No dirty reads: an uncommitted write is invisible (versions install at
// commit only).
func TestNoDirtyRead(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginRC(t, db)
	_ = engine.PutVal(t1, "x", 99)
	t2 := beginRC(t, db)
	if v, _ := engine.GetVal(t2, "x"); v != 1 {
		t.Fatalf("dirty read: %d", v)
	}
	_ = t1.Abort()
	_ = t2.Commit()
}

// First-writer-wins: the second writer BLOCKS (rather than aborting) and
// proceeds after the first commits.
func TestFirstWriterWinsBlocks(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginRC(t, db)
	t2 := beginRC(t, db)
	if err := engine.PutVal(t1, "x", 120); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "x", 130) }()
	select {
	case <-done:
		t.Fatal("second writer should block on the write lock")
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("blocked writer must succeed after lock grant (no FCW abort): %v", err)
	}
	if got := db.ReadCommittedRow("x").Val(); got != 130 {
		t.Fatalf("x = %d", got)
	}
}

// General lost update (P4) is possible: reads take no locks and writes are
// first-writer-wins, so H4 executes to completion with T2's update lost.
func TestH4LostUpdatePossible(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginRC(t, db)
	t2 := beginRC(t, db)
	v1, _ := engine.GetVal(t1, "x")
	v2, _ := engine.GetVal(t2, "x")
	_ = engine.PutVal(t2, "x", v2+20)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = engine.PutVal(t1, "x", v1+30) // stale read-modify-write
	if err := t1.Commit(); err != nil {
		t.Fatalf("Read Consistency does not prevent P4: %v", err)
	}
	if got := db.ReadCommittedRow("x").Val(); got != 130 {
		t.Fatalf("x = %d; T2's increment should be lost (P4)", got)
	}
}

// Read skew (A5A) is possible: two statements, two snapshots.
func TestReadSkewPossible(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 50, "y": 50})
	t1 := beginRC(t, db)
	x, _ := engine.GetVal(t1, "x")
	t2 := beginRC(t, db)
	_ = engine.PutVal(t2, "x", 10)
	_ = engine.PutVal(t2, "y", 90)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	y, _ := engine.GetVal(t1, "y")
	if x+y == 100 {
		t.Fatalf("x+y = %d; A5A should be observable at Read Consistency", x+y)
	}
	_ = t1.Commit()
}

// Cursor sets are as of Open Cursor; UpdateCurrent on a row changed since
// then fails with ErrRowChanged — P4C not possible (§4.3: Read Consistency
// "disallows cursor lost updates (P4C)").
func TestCursorLostUpdatePrevented(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginRC(t, db)
	cur, err := t1.OpenCursor(predicate.KeyEq{Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); err != nil { // rc1[x=100]
		t.Fatal(err)
	}
	t2 := beginRC(t, db)
	_ = engine.PutVal(t2, "x", 120)
	if err := t2.Commit(); err != nil { // w2[x=120] c2
		t.Fatal(err)
	}
	err = cur.UpdateCurrent(data.Scalar(130)) // wc1[x=130]
	if !errors.Is(err, engine.ErrRowChanged) {
		t.Fatalf("cursor update after row changed got %v, want ErrRowChanged", err)
	}
	_ = t1.Abort()
	if got := db.ReadCommittedRow("x").Val(); got != 120 {
		t.Fatalf("x = %d; T2's update must survive", got)
	}
}

func TestCursorUpdateCleanPath(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginRC(t, db)
	cur, _ := t1.OpenCursor(predicate.KeyEq{Key: "x"})
	_, _ = cur.Fetch()
	if err := cur.UpdateCurrent(data.Scalar(101)); err != nil {
		t.Fatal(err)
	}
	_ = cur.Close()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.ReadCommittedRow("x").Val(); got != 101 {
		t.Fatalf("x = %d", got)
	}
}

// Phantoms (P3) possible: two Selects in one transaction see different
// committed sets.
func TestPhantomsPossible(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	db.Load(data.Tuple{Key: "e1", Row: data.Row{"active": 1}})
	p := predicate.MustParse("active == 1")
	t1 := beginRC(t, db)
	rows1, _ := t1.Select(p)
	t2 := beginRC(t, db)
	_ = t2.Put("e2", data.Row{"active": 1})
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	rows2, _ := t1.Select(p)
	if len(rows2) != len(rows1)+1 {
		t.Fatalf("phantom not observed: %d -> %d", len(rows1), len(rows2))
	}
	_ = t1.Commit()
}

func TestOwnWritesOverlay(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginRC(t, db)
	_ = engine.PutVal(t1, "x", 5)
	if v, _ := engine.GetVal(t1, "x"); v != 5 {
		t.Fatal("own write invisible")
	}
	_ = t1.Delete("x")
	if _, err := t1.Get("x"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatal("own delete invisible")
	}
	rows, _ := t1.Select(predicate.True{})
	if len(rows) != 0 {
		t.Fatalf("select saw deleted row: %v", rows)
	}
	_ = t1.Abort()
}

func TestDeadlockBetweenWriters(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 1, "y": 1})
	t1 := beginRC(t, db)
	t2 := beginRC(t, db)
	_ = engine.PutVal(t1, "x", 2)
	_ = engine.PutVal(t2, "y", 2)
	first := make(chan error, 1)
	go func() { first <- engine.PutVal(t1, "y", 3) }()
	time.Sleep(30 * time.Millisecond)
	err := engine.PutVal(t2, "x", 3)
	if !errors.Is(err, engine.ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	_ = t2.Abort()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	_ = t1.Commit()
}

func TestAbortDropsBufferedWrites(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginRC(t, db)
	_ = engine.PutVal(t1, "x", 9)
	_ = t1.Abort()
	if got := db.ReadCommittedRow("x").Val(); got != 1 {
		t.Fatalf("x = %d after abort", got)
	}
}

func TestTxDoneGuards(t *testing.T) {
	db := NewDB(WithLevels(engine.ReadConsistency))
	t1 := beginRC(t, db)
	_ = t1.Commit()
	if _, err := t1.Get("x"); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("Get after commit")
	}
	if _, err := t1.Select(predicate.True{}); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("Select after commit")
	}
	if err := t1.Put("x", data.Scalar(1)); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("Put after commit")
	}
}
