package locking

import (
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

func newKeyrangeDB(shards int) *DB {
	opts := []Option{WithPhantomProtection(PhantomKeyrange)}
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	return NewDB(opts...)
}

func TestPhantomProtectionKnob(t *testing.T) {
	if got := NewDB().PhantomProtection(); got != PhantomPredicate {
		t.Fatalf("default protocol = %v, want predicate", got)
	}
	if got := newKeyrangeDB(0).PhantomProtection(); got != PhantomKeyrange {
		t.Fatalf("keyrange knob = %v", got)
	}
	if PhantomKeyrange.String() != "keyrange" || PhantomPredicate.String() != "predicate" {
		t.Fatal("Phantom.String wrong")
	}
}

// TestKeyrangeBlocksPhantomInsert: under SERIALIZABLE the scan's gap locks
// block a matching insert until the scanner commits — and the gate is
// never taken.
func TestKeyrangeBlocksPhantomInsert(t *testing.T) {
	db := newKeyrangeDB(8)
	loadScalars(db, map[string]int64{"a": 1, "m": 2})
	p := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 1}
	db.Load(data.Tuple{Key: "emp:1", Row: data.NewRow(map[string]int64{"active": 1})})

	scanner := mustBegin(t, db, engine.Serializable)
	rows, err := scanner.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("scan saw %d rows, want 1", len(rows))
	}

	inserted := make(chan error, 1)
	go func() {
		w := mustBegin(t, db, engine.Serializable)
		if err := w.Put("emp:2", data.NewRow(map[string]int64{"active": 1})); err != nil {
			inserted <- err
			return
		}
		inserted <- w.Commit()
	}()
	select {
	case err := <-inserted:
		t.Fatalf("phantom insert not blocked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A non-matching insert into the same range sails through (refined
	// gap locks — same admission as the predicate table).
	w2 := mustBegin(t, db, engine.Serializable)
	if err := w2.Put("emp:0", data.NewRow(map[string]int64{"active": 0})); err != nil {
		t.Fatalf("non-matching insert blocked: %v", err)
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-inserted; err != nil {
		t.Fatalf("insert after scanner commit: %v", err)
	}
	if st := db.LockStats(); st.GateAcquires != 0 {
		t.Fatalf("GateAcquires = %d on the keyrange engine, want 0", st.GateAcquires)
	} else if st.RangeGrants == 0 || st.GapWaits == 0 {
		t.Fatalf("range stats not counted: %+v", st)
	}
}

// TestKeyrangeAdmitsPhantomAtRepeatableRead: REPEATABLE READ holds only
// short range locks (Table 2: short predicate read locks), so the phantom
// appears between the two scans — exactly as with the predicate table.
func TestKeyrangeAdmitsPhantomAtRepeatableRead(t *testing.T) {
	db := newKeyrangeDB(8)
	db.Load(data.Tuple{Key: "emp:1", Row: data.NewRow(map[string]int64{"active": 1})})
	p := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 1}

	scanner := mustBegin(t, db, engine.RepeatableRead)
	first, err := scanner.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	w := mustBegin(t, db, engine.RepeatableRead)
	if err := w.Put("emp:2", data.NewRow(map[string]int64{"active": 1})); err != nil {
		t.Fatalf("insert blocked at RR: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	second, err := scanner.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first)+1 {
		t.Fatalf("phantom not admitted at RR: %d -> %d rows", len(first), len(second))
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyrangeUpdateIntoPredicateBlocked: the non-insert phantom source —
// updating an existing non-matching row so it starts matching — must
// conflict with a SERIALIZABLE scan's fragments on the row's key.
func TestKeyrangeUpdateIntoPredicateBlocked(t *testing.T) {
	db := newKeyrangeDB(8)
	db.Load(
		data.Tuple{Key: "emp:1", Row: data.NewRow(map[string]int64{"active": 1})},
		data.Tuple{Key: "emp:2", Row: data.NewRow(map[string]int64{"active": 0})},
	)
	p := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 1}
	scanner := mustBegin(t, db, engine.Serializable)
	if _, err := scanner.Select(p); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		w := mustBegin(t, db, engine.Serializable)
		if err := w.Put("emp:2", data.NewRow(map[string]int64{"active": 1})); err != nil {
			done <- err
			return
		}
		done <- w.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("update into the predicate not blocked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestKeyrangeCursorGuard: OpenCursor takes the range guard under the
// keyrange protocol; at SERIALIZABLE it pins the cursor set's range.
func TestKeyrangeCursorGuard(t *testing.T) {
	db := newKeyrangeDB(4)
	db.Load(data.Tuple{Key: "t:1", Row: data.Scalar(5)})
	tx := mustBegin(t, db, engine.Serializable)
	cur, err := tx.OpenCursor(predicate.KeyPrefix{Prefix: "t:"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		w := mustBegin(t, db, engine.Serializable)
		if err := w.Put("t:2", data.Scalar(9)); err != nil {
			blocked <- err
			return
		}
		blocked <- w.Commit()
	}()
	select {
	case err := <-blocked:
		t.Fatalf("insert into the cursor's prefix range not blocked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

// TestKeyrangeStaleAnchorPhantom is the end-to-end regression for the
// stale-anchor shadowing bug: an aborted insert leaves its key anchoring
// an older scan's inherited fragments; a newer scan starting after the
// abort must still get gap coverage below that stale anchor, or a
// matching insert slips into its range — a P3 phantom at SERIALIZABLE.
func TestKeyrangeStaleAnchorPhantom(t *testing.T) {
	db := newKeyrangeDB(8)
	db.Load(
		data.Tuple{Key: "a", Row: data.NewRow(map[string]int64{"active": 0})},
		data.Tuple{Key: "r", Row: data.NewRow(map[string]int64{"active": 0})},
	)
	p5 := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 5}
	p4 := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 4}

	// T5's long scan; T0 inserts a non-matching row m and aborts — the
	// undo removes m from the store but T5's inherited fragment keeps m
	// as a lock-table anchor.
	t5 := mustBegin(t, db, engine.Serializable)
	if _, err := t5.Select(p5); err != nil {
		t.Fatal(err)
	}
	t0 := mustBegin(t, db, engine.Serializable)
	if err := t0.Put("m", data.NewRow(map[string]int64{"active": 0})); err != nil {
		t.Fatal(err)
	}
	if err := t0.Abort(); err != nil {
		t.Fatal(err)
	}

	// T4 scans after the abort; its store-derived anchors are {a, r}.
	t4 := mustBegin(t, db, engine.Serializable)
	first, err := t4.Select(p4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 0 {
		t.Fatalf("first scan saw %d rows, want 0", len(first))
	}

	// Insert g in (a, m) matching T4's predicate: must block on T4's
	// coverage even though the covering anchor is the stale m.
	done := make(chan error, 1)
	go func() {
		t6 := mustBegin(t, db, engine.Serializable)
		if err := t6.Put("g", data.NewRow(map[string]int64{"active": 4})); err != nil {
			done <- err
			return
		}
		done <- t6.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("phantom insert admitted through the stale anchor (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	second, err := t4.Select(p4)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Fatalf("second scan saw %d rows — phantom at SERIALIZABLE", len(second))
	}
	if err := t4.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := t5.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyrangeCursorResurrectBlocked: UpdateCurrent re-creating a row
// another transaction deleted under the cursor is an insert, and must go
// through the covering gap lock — otherwise a SERIALIZABLE scan that
// started after the delete (and so has no fragment anchored at the dead
// key) gets a P3 phantom the predicate protocol would have blocked.
func TestKeyrangeCursorResurrectBlocked(t *testing.T) {
	db := newKeyrangeDB(8)
	db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"val": 5})})
	p := predicate.Field{Name: "val", Op: predicate.GE, Arg: 1}

	// t1 (READ COMMITTED: short cursor locks) parks a cursor on e1.
	t1 := mustBegin(t, db, engine.ReadCommitted)
	cur, err := t1.OpenCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); err != nil {
		t.Fatal(err)
	}
	// t2 deletes e1 and commits.
	t2 := mustBegin(t, db, engine.Serializable)
	if err := t2.Delete("e1"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// t3's SERIALIZABLE scan sees no rows; its fragments cannot anchor at
	// the absent e1.
	t3 := mustBegin(t, db, engine.Serializable)
	if rows, err := t3.Select(p); err != nil || len(rows) != 0 {
		t.Fatalf("scan = %d rows, err %v; want 0", len(rows), err)
	}
	// t1 now writes through the stale cursor, resurrecting e1 — a phantom
	// for t3 that must block on the covering gap.
	done := make(chan error, 1)
	go func() {
		if err := cur.UpdateCurrent(data.NewRow(map[string]int64{"val": 9})); err != nil {
			done <- err
			return
		}
		done <- t1.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("cursor resurrection not blocked by the gap lock (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if rows, err := t3.Select(p); err != nil || len(rows) != 0 {
		t.Fatalf("re-scan = %d rows, err %v; want 0 (phantom)", len(rows), err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestKeyrangeInsertRollbackKeepsCoverage: an aborted non-matching insert
// under a live scan must leave the scan's protection intact (inherited
// fragments outlive the undo).
func TestKeyrangeInsertRollbackKeepsCoverage(t *testing.T) {
	db := newKeyrangeDB(8)
	db.Load(data.Tuple{Key: "emp:9", Row: data.NewRow(map[string]int64{"active": 1})})
	p := predicate.Field{Name: "active", Op: predicate.EQ, Arg: 1}
	scanner := mustBegin(t, db, engine.Serializable)
	if _, err := scanner.Select(p); err != nil {
		t.Fatal(err)
	}
	w := mustBegin(t, db, engine.Serializable)
	if err := w.Put("emp:3", data.NewRow(map[string]int64{"active": 0})); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	// The gap below emp:9 must still be covered.
	blocked := make(chan error, 1)
	go func() {
		w2 := mustBegin(t, db, engine.Serializable)
		if err := w2.Put("emp:5", data.NewRow(map[string]int64{"active": 1})); err != nil {
			blocked <- err
			return
		}
		blocked <- w2.Commit()
	}()
	select {
	case err := <-blocked:
		t.Fatalf("coverage lost after insert rollback (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := scanner.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}
