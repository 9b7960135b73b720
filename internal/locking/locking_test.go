package locking

import (
	"errors"
	"sync"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

func mustBegin(t *testing.T, db *DB, level engine.Level) engine.Tx {
	t.Helper()
	tx, err := db.Begin(level)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func loadScalars(db *DB, kv map[string]int64) {
	var ts []data.Tuple
	for k, v := range kv {
		ts = append(ts, data.Tuple{Key: data.Key(k), Row: data.Scalar(v)})
	}
	db.Load(ts...)
}

func TestBeginRejectsMVLevels(t *testing.T) {
	db := NewDB()
	for _, lvl := range []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency} {
		if _, err := db.Begin(lvl); !errors.Is(err, engine.ErrUnsupported) {
			t.Errorf("Begin(%s) = %v, want ErrUnsupported", lvl, err)
		}
	}
}

func TestCommitMakesWritesVisible(t *testing.T) {
	db := NewDB()
	tx := mustBegin(t, db, engine.Serializable)
	if err := engine.PutVal(tx, "x", 42); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := mustBegin(t, db, engine.Serializable)
	v, err := engine.GetVal(tx2, "x")
	if err != nil || v != 42 {
		t.Fatalf("read back %d, %v", v, err)
	}
	_ = tx2.Commit()
}

func TestAbortRollsBack(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 1})
	tx := mustBegin(t, db, engine.Serializable)
	_ = engine.PutVal(tx, "x", 99)
	_ = engine.PutVal(tx, "y", 5) // insert
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if db.ReadCommittedRow("x").Val() != 1 {
		t.Fatal("update not rolled back")
	}
	if db.ReadCommittedRow("y") != nil {
		t.Fatal("insert not rolled back")
	}
}

func TestDeleteAndNotFound(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 1})
	tx := mustBegin(t, db, engine.Serializable)
	if err := tx.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get("x"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	_ = tx.Commit()
	tx2 := mustBegin(t, db, engine.Serializable)
	if _, err := tx2.Get("x"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatal("delete not durable")
	}
	_ = tx2.Commit()
}

func TestOpsAfterTerminalRejected(t *testing.T) {
	db := NewDB()
	tx := mustBegin(t, db, engine.Serializable)
	_ = tx.Commit()
	if _, err := tx.Get("x"); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("Get after commit")
	}
	if err := tx.Put("x", data.Scalar(1)); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("Put after commit")
	}
	if err := tx.Commit(); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("double commit")
	}
	if err := tx.Abort(); !errors.Is(err, engine.ErrTxDone) {
		t.Fatal("abort after commit")
	}
}

// Degree 0: short write locks — a second writer does not block (dirty
// write), and undo corrupts, exactly the paper's §3 scenario.
func TestDegree0AllowsDirtyWrite(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	t1 := mustBegin(t, db, engine.Degree0)
	t2 := mustBegin(t, db, engine.Degree0)
	if err := engine.PutVal(t1, "x", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "x", 2) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Degree 0 write blocked — dirty write should be possible")
	}
	_ = t1.Abort() // restores T1's before-image 0, wiping T2's write
	if got := db.ReadCommittedRow("x").Val(); got != 0 {
		t.Fatalf("x = %d; undo of dirty write should have wiped T2's value", got)
	}
	_ = t2.Commit()
}

// READ UNCOMMITTED: long write locks — dirty writes blocked.
func TestReadUncommittedBlocksDirtyWrite(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	t1 := mustBegin(t, db, engine.ReadUncommitted)
	t2 := mustBegin(t, db, engine.ReadUncommitted)
	_ = engine.PutVal(t1, "x", 1)
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "x", 2) }()
	select {
	case <-done:
		t.Fatal("second write should block until T1 terminates")
	case <-time.After(50 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
	if got := db.ReadCommittedRow("x").Val(); got != 2 {
		t.Fatalf("x = %d", got)
	}
}

// READ UNCOMMITTED: reads take no locks and see uncommitted data.
func TestReadUncommittedDirtyRead(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	t1 := mustBegin(t, db, engine.ReadUncommitted)
	t2 := mustBegin(t, db, engine.ReadUncommitted)
	_ = engine.PutVal(t1, "x", 1)
	v, err := engine.GetVal(t2, "x")
	if err != nil || v != 1 {
		t.Fatalf("dirty read = %d, %v (should see uncommitted 1)", v, err)
	}
	_ = t1.Abort()
	_ = t2.Commit()
}

// READ COMMITTED: short read locks — reads block on uncommitted writes and
// see only committed data; but reads are not repeatable.
func TestReadCommittedNoDirtyReadButFuzzy(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	t1 := mustBegin(t, db, engine.ReadCommitted)
	t2 := mustBegin(t, db, engine.ReadCommitted)
	_ = engine.PutVal(t1, "x", 1)
	got := make(chan int64, 1)
	go func() {
		v, _ := engine.GetVal(t2, "x")
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("read of dirty row should block at READ COMMITTED")
	case <-time.After(50 * time.Millisecond):
	}
	_ = t1.Commit()
	if v := <-got; v != 1 {
		t.Fatalf("read %d after commit, want 1", v)
	}
	// Fuzzy read: another writer can change x between T2's reads.
	t3 := mustBegin(t, db, engine.ReadCommitted)
	_ = engine.PutVal(t3, "x", 7)
	_ = t3.Commit()
	v2, _ := engine.GetVal(t2, "x")
	if v2 != 7 {
		t.Fatalf("second read = %d, want 7 (non-repeatable at RC)", v2)
	}
	_ = t2.Commit()
}

// REPEATABLE READ: long item read locks — a writer blocks until the reader
// commits, so rereads are stable.
func TestRepeatableReadBlocksWriter(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	t1 := mustBegin(t, db, engine.RepeatableRead)
	t2 := mustBegin(t, db, engine.RepeatableRead)
	if v, _ := engine.GetVal(t1, "x"); v != 0 {
		t.Fatal("setup")
	}
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "x", 9) }()
	select {
	case <-done:
		t.Fatal("write should block on long read lock")
	case <-time.After(50 * time.Millisecond):
	}
	if v, _ := engine.GetVal(t1, "x"); v != 0 {
		t.Fatal("reread changed under long read lock")
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
}

// REPEATABLE READ allows phantoms: predicate locks are short, so an insert
// into a previously read predicate proceeds.
func TestRepeatableReadAllowsPhantom(t *testing.T) {
	db := NewDB()
	db.Load(
		data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})},
		data.Tuple{Key: "e2", Row: data.NewRow(map[string]int64{"active": 1})},
	)
	p := predicate.MustParse("active == 1")
	t1 := mustBegin(t, db, engine.RepeatableRead)
	rows, err := t1.Select(p)
	if err != nil || len(rows) != 2 {
		t.Fatalf("first select: %v, %v", rows, err)
	}
	t2 := mustBegin(t, db, engine.RepeatableRead)
	if err := t2.Put("e3", data.NewRow(map[string]int64{"active": 1})); err != nil {
		t.Fatalf("phantom insert blocked at RR: %v", err)
	}
	_ = t2.Commit()
	rows2, _ := t1.Select(p)
	if len(rows2) != 3 {
		t.Fatalf("phantom not observed: %d rows", len(rows2))
	}
	_ = t1.Commit()
}

// SERIALIZABLE: long predicate locks — the phantom insert blocks.
func TestSerializableBlocksPhantom(t *testing.T) {
	db := NewDB()
	db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})})
	p := predicate.MustParse("active == 1")
	t1 := mustBegin(t, db, engine.Serializable)
	if _, err := t1.Select(p); err != nil {
		t.Fatal(err)
	}
	t2 := mustBegin(t, db, engine.Serializable)
	done := make(chan error, 1)
	go func() { done <- t2.Put("e9", data.NewRow(map[string]int64{"active": 1})) }()
	select {
	case <-done:
		t.Fatal("phantom insert should block at SERIALIZABLE")
	case <-time.After(50 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
}

// Non-matching inserts are not blocked by the predicate lock.
func TestSerializablePredicateIgnoresNonMatching(t *testing.T) {
	db := NewDB()
	db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})})
	p := predicate.MustParse("active == 1")
	t1 := mustBegin(t, db, engine.Serializable)
	_, _ = t1.Select(p)
	t2 := mustBegin(t, db, engine.Serializable)
	if err := t2.Put("e9", data.NewRow(map[string]int64{"active": 0})); err != nil {
		t.Fatalf("non-matching insert blocked: %v", err)
	}
	_ = t2.Commit()
	_ = t1.Commit()
}

// Deadlock: two RR transactions read then upgrade — the second upgrader is
// the victim.
func TestUpgradeDeadlockVictim(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 100})
	t1 := mustBegin(t, db, engine.RepeatableRead)
	t2 := mustBegin(t, db, engine.RepeatableRead)
	_, _ = engine.GetVal(t1, "x")
	_, _ = engine.GetVal(t2, "x")
	first := make(chan error, 1)
	go func() { first <- engine.PutVal(t1, "x", 130) }()
	time.Sleep(30 * time.Millisecond)
	err := engine.PutVal(t2, "x", 120)
	if !errors.Is(err, engine.ErrDeadlock) {
		t.Fatalf("second upgrader got %v, want ErrDeadlock", err)
	}
	_ = t2.Abort()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	_ = t1.Commit()
	if got := db.ReadCommittedRow("x").Val(); got != 130 {
		t.Fatalf("x = %d", got)
	}
}

// Select under SERIALIZABLE re-reads rows under their item locks, so a row
// changed while waiting is reported with its committed value.
func TestSelectRereadsUnderLock(t *testing.T) {
	db := NewDB()
	db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1, "v": 1})})
	t1 := mustBegin(t, db, engine.ReadCommitted)
	t2 := mustBegin(t, db, engine.ReadCommitted)
	// T1 updates e1 but keeps it active.
	if err := t1.Put("e1", data.NewRow(map[string]int64{"active": 1, "v": 2})); err != nil {
		t.Fatal(err)
	}
	got := make(chan []data.Tuple, 1)
	go func() {
		rows, _ := t2.Select(predicate.MustParse("active == 1"))
		got <- rows
	}()
	select {
	case <-got:
		t.Fatal("select should block on the dirty row")
	case <-time.After(50 * time.Millisecond):
	}
	_ = t1.Commit()
	rows := <-got
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if v, _ := rows[0].Row.Get("v"); v != 2 {
		t.Fatalf("select returned stale row: %v", rows[0])
	}
	_ = t2.Commit()
}

// --- Cursor Stability. ---

func TestCursorStabilityHoldsCurrentRowLock(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"x": 100})
	t1 := mustBegin(t, db, engine.CursorStability)
	cur, err := t1.OpenCursor(predicate.KeyEq{Key: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); err != nil {
		t.Fatal(err)
	}
	// While the cursor sits on x, a writer must block.
	t2 := mustBegin(t, db, engine.CursorStability)
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "x", 120) }()
	select {
	case <-done:
		t.Fatal("write should block while cursor is on the row")
	case <-time.After(50 * time.Millisecond):
	}
	// UpdateCurrent upgrades and commits; T2 then proceeds.
	if err := cur.UpdateCurrent(data.Scalar(130)); err != nil {
		t.Fatal(err)
	}
	_ = cur.Close()
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
	if got := db.ReadCommittedRow("x").Val(); got != 120 {
		t.Fatalf("x = %d (T2's later write wins)", got)
	}
}

func TestCursorLockReleasedOnMove(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"a": 1, "b": 2})
	t1 := mustBegin(t, db, engine.CursorStability)
	cur, _ := t1.OpenCursor(predicate.True{})
	if _, err := cur.Fetch(); err != nil { // on "a"
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); err != nil { // moved to "b": lock on "a" released
		t.Fatal(err)
	}
	t2 := mustBegin(t, db, engine.CursorStability)
	if err := engine.PutVal(t2, "a", 9); err != nil {
		t.Fatalf("write to released cursor row blocked: %v", err)
	}
	_ = t2.Commit()
	_ = t1.Commit()
}

func TestCursorWriteLockSurvivesMove(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"a": 1, "b": 2})
	t1 := mustBegin(t, db, engine.CursorStability)
	cur, _ := t1.OpenCursor(predicate.True{})
	_, _ = cur.Fetch() // on "a"
	if err := cur.UpdateCurrent(data.Scalar(10)); err != nil {
		t.Fatal(err)
	}
	_, _ = cur.Fetch() // move to "b" — X lock on "a" must persist
	t2 := mustBegin(t, db, engine.CursorStability)
	done := make(chan error, 1)
	go func() { done <- engine.PutVal(t2, "a", 99) }()
	select {
	case <-done:
		t.Fatal("write lock on updated row should persist after cursor moves (paper §4.1)")
	case <-time.After(50 * time.Millisecond):
	}
	_ = t1.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = t2.Commit()
}

func TestCursorSkipsDeletedRows(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"a": 1, "b": 2})
	t1 := mustBegin(t, db, engine.Serializable)
	cur, _ := t1.OpenCursor(predicate.True{})
	_ = t1.Delete("a")
	tup, err := cur.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if tup.Key != "b" {
		t.Fatalf("fetched %v, want b (a was deleted)", tup)
	}
	_ = t1.Commit()
}

func TestCursorCurrentAndErrors(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"a": 1})
	t1 := mustBegin(t, db, engine.ReadCommitted)
	cur, _ := t1.OpenCursor(predicate.True{})
	if _, err := cur.Current(); !errors.Is(err, engine.ErrNoCursor) {
		t.Fatal("Current before Fetch should fail")
	}
	if err := cur.UpdateCurrent(data.Scalar(5)); !errors.Is(err, engine.ErrNoCursor) {
		t.Fatal("UpdateCurrent before Fetch should fail")
	}
	if _, err := cur.Fetch(); err != nil {
		t.Fatal(err)
	}
	if tup, err := cur.Current(); err != nil || tup.Key != "a" {
		t.Fatalf("Current = %v, %v", tup, err)
	}
	if _, err := cur.Fetch(); !errors.Is(err, engine.ErrNotFound) {
		t.Fatal("Fetch past end should report ErrNotFound")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	_ = t1.Commit()
}

// --- Recorded histories. ---

// Two-phase locked executions at SERIALIZABLE produce conflict-serializable
// recorded histories — the fundamental serialization theorem, checked on a
// live concurrent run.
func TestSerializableRecordedHistorySerializable(t *testing.T) {
	db := NewDB()
	loadScalars(db, map[string]int64{"a": 10, "b": 10, "c": 10})
	db.Recorder().Enable()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			keys := []data.Key{"a", "b", "c"}
			for i := 0; i < 25; i++ {
				tx, err := db.Begin(engine.Serializable)
				if err != nil {
					t.Error(err)
					return
				}
				k1 := keys[(int(seed)+i)%3]
				k2 := keys[(int(seed)+i+1)%3]
				v, err := engine.GetVal(tx, k1)
				if err == nil {
					err = engine.PutVal(tx, k2, v+1)
				}
				if err != nil {
					_ = tx.Abort()
					continue
				}
				_ = tx.Commit()
			}
		}(int64(g))
	}
	wg.Wait()
	h := db.Recorder().History()
	if err := h.Validate(); err != nil {
		t.Fatalf("recorded history invalid: %v", err)
	}
	if !deps.Serializable(h) {
		g := deps.BuildGraph(h)
		t.Fatalf("recorded SERIALIZABLE history not serializable; cycle %v", g.Cycle())
	}
}

func TestProtocolsTableComplete(t *testing.T) {
	for _, lvl := range LockingLevels {
		p, ok := Protocols[lvl]
		if !ok {
			t.Fatalf("no protocol for %s", lvl)
		}
		if p.Level != lvl {
			t.Fatalf("protocol level mismatch for %s", lvl)
		}
		if lvl == engine.Degree0 {
			if p.WriteItem != DurShort {
				t.Error("Degree 0 must use short write locks")
			}
		} else if p.WriteItem != DurLong {
			t.Errorf("%s must use long write locks (Remark 3)", lvl)
		}
	}
}

func TestDurationString(t *testing.T) {
	if DurNone.String() != "none" || DurShort.String() != "short" ||
		DurLong.String() != "long" || DurCursor.String() != "while-current" {
		t.Fatal("duration strings")
	}
}
