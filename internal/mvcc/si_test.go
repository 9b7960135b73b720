package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

func loadKV(db *DB, kv map[string]int64) {
	var ts []data.Tuple
	for k, v := range kv {
		ts = append(ts, data.Tuple{Key: data.Key(k), Row: data.Scalar(v)})
	}
	db.Load(ts...)
}

func beginSI(t *testing.T, db *DB) engine.Tx {
	t.Helper()
	tx, err := db.Begin(engine.SnapshotIsolation)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestBeginRejectsOtherLevelsSI(t *testing.T) {
	db := NewDB()
	if _, err := db.Begin(engine.Serializable); !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("got %v", err)
	}
}

func TestSnapshotReadsAreStable(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 50})
	t1 := beginSI(t, db)
	if v, _ := engine.GetVal(t1, "x"); v != 50 {
		t.Fatal("initial read")
	}
	// Concurrent committed update is invisible to T1 (A2 impossible).
	t2 := beginSI(t, db)
	_ = engine.PutVal(t2, "x", 10)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.GetVal(t1, "x"); v != 50 {
		t.Fatalf("reread = %d; snapshot must be stable", v)
	}
	_ = t1.Commit() // read-only: always commits
	// A fresh transaction sees the new value.
	t3 := beginSI(t, db)
	if v, _ := engine.GetVal(t3, "x"); v != 10 {
		t.Fatalf("new txn read = %d", v)
	}
	_ = t3.Commit()
}

func TestOwnWritesVisible(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginSI(t, db)
	_ = engine.PutVal(t1, "x", 2)
	if v, _ := engine.GetVal(t1, "x"); v != 2 {
		t.Fatal("own write invisible")
	}
	_ = t1.Delete("x")
	if _, err := t1.Get("x"); !errors.Is(err, engine.ErrNotFound) {
		t.Fatal("own delete invisible")
	}
	_ = t1.Abort()
	if db.ReadCommittedRow("x").Val() != 1 {
		t.Fatal("aborted writes leaked")
	}
}

// First-committer-wins: the paper's defining feature. T1 and T2 write the
// same item from overlapping intervals; the second committer aborts.
func TestFirstCommitterWins(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginSI(t, db)
	t2 := beginSI(t, db)
	_ = engine.PutVal(t1, "x", 120)
	_ = engine.PutVal(t2, "x", 130)
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	err := t2.Commit()
	if !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("second committer got %v, want ErrWriteConflict", err)
	}
	if got := db.ReadCommittedRow("x").Val(); got != 120 {
		t.Fatalf("x = %d", got)
	}
}

// Lost update (P4) is therefore impossible: H4's interleaving aborts T1.
func TestH4LostUpdatePrevented(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 100})
	t1 := beginSI(t, db)
	t2 := beginSI(t, db)
	v1, _ := engine.GetVal(t1, "x") // r1[x=100]
	v2, _ := engine.GetVal(t2, "x") // r2[x=100]
	_ = engine.PutVal(t2, "x", v2+20)
	if err := t2.Commit(); err != nil { // c2
		t.Fatal(err)
	}
	_ = engine.PutVal(t1, "x", v1+30) // w1[x=130]
	if err := t1.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("T1 must abort (FCW), got %v", err)
	}
	if got := db.ReadCommittedRow("x").Val(); got != 120 {
		t.Fatalf("x = %d; T2's update must survive", got)
	}
}

// Disjoint write sets both commit — which is exactly why write skew (A5B)
// is possible under SI (H5).
func TestWriteSkewAllowed(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 50, "y": 50})
	t1 := beginSI(t, db)
	t2 := beginSI(t, db)
	x1, _ := engine.GetVal(t1, "x")
	y1, _ := engine.GetVal(t1, "y")
	x2, _ := engine.GetVal(t2, "x")
	y2, _ := engine.GetVal(t2, "y")
	if x1+y1 <= 0 || x2+y2 <= 0 {
		t.Fatal("setup")
	}
	_ = engine.PutVal(t1, "y", y1-90) // T1 withdraws 90 from y
	_ = engine.PutVal(t2, "x", x2-90) // T2 withdraws 90 from x
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("disjoint write sets must both commit under SI: %v", err)
	}
	x := db.ReadCommittedRow("x").Val()
	y := db.ReadCommittedRow("y").Val()
	if x+y >= 0 {
		t.Fatalf("x+y = %d; write skew should have violated the constraint", x+y)
	}
}

// Reads never block: even with a concurrent writer holding nothing back,
// readers proceed (no lock manager in the engine at all). Structural: a
// read completes while another txn has written the same key uncommitted.
func TestReadsNeverBlock(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginSI(t, db)
	_ = engine.PutVal(t1, "x", 2) // uncommitted write
	t2 := beginSI(t, db)
	v, err := engine.GetVal(t2, "x")
	if err != nil || v != 1 {
		t.Fatalf("reader saw %d, %v (must see committed snapshot, not block)", v, err)
	}
	_ = t1.Commit()
	_ = t2.Commit()
}

// No A3 phantoms: a re-evaluated predicate returns the same set even after
// a concurrent committed insert (Remark 10).
func TestNoA3Phantom(t *testing.T) {
	db := NewDB()
	db.Load(
		data.Tuple{Key: "t1", Row: data.NewRow(map[string]int64{"hours": 4})},
		data.Tuple{Key: "t2", Row: data.NewRow(map[string]int64{"hours": 3})},
	)
	p := predicate.MustParse("hours > 0")
	t1 := beginSI(t, db)
	rows1, _ := t1.Select(p)
	t2 := beginSI(t, db)
	_ = t2.Put("t3", data.NewRow(map[string]int64{"hours": 1}))
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	rows2, _ := t1.Select(p)
	if len(rows1) != len(rows2) {
		t.Fatalf("predicate re-evaluation changed: %d -> %d (A3 must be impossible)", len(rows1), len(rows2))
	}
	_ = t1.Commit()
}

// But P3 constraint phantoms remain possible: two transactions each check
// sum(hours) <= 8 then insert disjoint tasks; both commit; constraint broken.
func TestP3ConstraintPhantomPossible(t *testing.T) {
	db := NewDB()
	db.Load(
		data.Tuple{Key: "task:1", Row: data.NewRow(map[string]int64{"hours": 4})},
		data.Tuple{Key: "task:2", Row: data.NewRow(map[string]int64{"hours": 3})},
	)
	p := predicate.MustParse(`key ~ "task:"`)
	sum := func(tx engine.Tx) int64 {
		rows, err := tx.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		var s int64
		for _, r := range rows {
			h, _ := r.Row.Get("hours")
			s += h
		}
		return s
	}
	t1 := beginSI(t, db)
	t2 := beginSI(t, db)
	if s := sum(t1); s+1 > 8 {
		t.Fatal("setup: T1 should believe it can add 1 hour")
	}
	if s := sum(t2); s+1 > 8 {
		t.Fatal("setup: T2 should believe it can add 1 hour")
	}
	_ = t1.Put("task:3", data.NewRow(map[string]int64{"hours": 1}))
	_ = t2.Put("task:4", data.NewRow(map[string]int64{"hours": 1}))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatalf("disjoint inserts are not caught by FCW: %v", err)
	}
	t3 := beginSI(t, db)
	if s := sum(t3); s <= 8 {
		t.Fatalf("total = %d; the P3 phantom should have broken the <= 8 constraint", s)
	}
	_ = t3.Commit()
}

// Read skew (A5A) impossible: T1 reads x and y around T2's committed
// update of both; the snapshot keeps them consistent (Remark 8's proof).
func TestNoReadSkew(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 50, "y": 50})
	t1 := beginSI(t, db)
	x, _ := engine.GetVal(t1, "x")
	t2 := beginSI(t, db)
	_ = engine.PutVal(t2, "x", 10)
	_ = engine.PutVal(t2, "y", 90)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	y, _ := engine.GetVal(t1, "y")
	if x+y != 100 {
		t.Fatalf("T1 saw x+y = %d; A5A must be impossible under SI", x+y)
	}
	_ = t1.Commit()
}

// Time travel: a transaction begun AsOf an old timestamp sees history — as
// far back as some snapshot has been holding it, and no further.
func TestTimeTravelAsOf(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 1})
	ts1 := db.CurrentTS()
	// History is remembered from the oldest open snapshot on: hold one at
	// ts1 before history moves on.
	bookmark, err := db.BeginAsOf(ts1)
	if err != nil {
		t.Fatal(err)
	}
	update := func(v int64) {
		t.Helper()
		tx := beginSI(t, db)
		_ = engine.PutVal(tx, "x", v)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	update(2)
	update(3)
	old, err := db.BeginAsOf(ts1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.GetVal(old, "x"); v != 1 {
		t.Fatalf("time travel read = %d, want 1", v)
	}
	_ = old.Commit()
	mid, err := db.BeginAsOf(ts1 + 1)
	if err != nil {
		t.Fatalf("a timestamp after the held one must be reachable: %v", err)
	}
	if v, _ := engine.GetVal(mid, "x"); v != 2 {
		t.Fatalf("time travel read at ts1+1 = %d, want 2", v)
	}
	_ = mid.Commit()
	// An update transaction with a very old timestamp aborts if it writes
	// data updated since ("update transactions with very old timestamps
	// would abort if they tried to update any data item that had been
	// updated by more recent transactions").
	old2, err := db.BeginAsOf(ts1)
	if err != nil {
		t.Fatal(err)
	}
	_ = engine.PutVal(old2, "x", 9)
	if err := old2.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("stale updater got %v, want ErrWriteConflict", err)
	}
	// With nothing held at ts1 any more, it is below the horizon: a typed
	// refusal, never a silent read of a newer version.
	_ = bookmark.Commit()
	update(4)
	if tx, err := db.BeginAsOf(ts1); !errors.Is(err, engine.ErrSnapshotTooOld) {
		t.Fatalf("BeginAsOf(%d) with nothing held there got (%v, %v), want ErrSnapshotTooOld", ts1, tx, err)
	}
	if tx, err := db.BeginAsOf(db.CurrentTS()); err != nil {
		t.Fatalf("BeginAsOf(now) got %v", err)
	} else if v, _ := engine.GetVal(tx, "x"); v != 4 {
		t.Fatalf("read as of now = %d, want 4", v)
	}
}

func TestSnapshotCursor(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"a": 1, "b": 2})
	t1 := beginSI(t, db)
	cur, err := t1.OpenCursor(predicate.True{})
	if err != nil {
		t.Fatal(err)
	}
	tup, err := cur.Fetch()
	if err != nil || tup.Key != "a" {
		t.Fatalf("fetch = %v, %v", tup, err)
	}
	if err := cur.UpdateCurrent(data.Scalar(10)); err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.GetVal(t1, "a"); v != 10 {
		t.Fatal("cursor update not visible to own reads")
	}
	if _, err := cur.Fetch(); err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Fetch(); !errors.Is(err, engine.ErrNotFound) {
		t.Fatal("cursor past end")
	}
	_ = cur.Close()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyAlwaysCommits(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 1})
	t1 := beginSI(t, db)
	_, _ = engine.GetVal(t1, "x")
	t2 := beginSI(t, db)
	_ = engine.PutVal(t2, "x", 2)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("read-only transaction must always commit: %v", err)
	}
}

// The MV→SV mapping of live SI executions: H1's interleaving under SI has
// serializable dataflows (H1.SI, §4.2), while the write-skew execution
// does not.
func TestLiveH1SIMappingSerializable(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 50, "y": 50})
	t1 := beginSI(t, db).(*SITx)
	v, _ := engine.GetVal(t1, "x") // r1[x=50]
	_ = engine.PutVal(t1, "x", v-40)
	t2 := beginSI(t, db).(*SITx)
	x2, _ := engine.GetVal(t2, "x") // r2[x0=50]: snapshot!
	y2, _ := engine.GetVal(t2, "y")
	if x2 != 50 || y2 != 50 {
		t.Fatalf("T2 must read the snapshot: %d, %d", x2, y2)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	vy, _ := engine.GetVal(t1, "y")
	_ = engine.PutVal(t1, "y", vy+40)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	txns := []deps.MVTxn{mvTxnOf(t1), mvTxnOf(t2)}
	if !deps.SISerializable(txns) {
		sv := deps.MapToSV(txns)
		t.Fatalf("H1.SI live run must map to a serializable SV history:\n%s", sv)
	}
}

func TestLiveWriteSkewMappingNotSerializable(t *testing.T) {
	db := NewDB()
	loadKV(db, map[string]int64{"x": 50, "y": 50})
	t1 := beginSI(t, db).(*SITx)
	t2 := beginSI(t, db).(*SITx)
	x1, _ := engine.GetVal(t1, "x")
	y1, _ := engine.GetVal(t1, "y")
	_, _ = engine.GetVal(t2, "x")
	y2, _ := engine.GetVal(t2, "y")
	_ = engine.PutVal(t1, "y", x1+y1-140)
	_ = engine.PutVal(t2, "x", y2-90)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	txns := []deps.MVTxn{mvTxnOf(t1), mvTxnOf(t2)}
	if deps.SISerializable(txns) {
		t.Fatal("live write-skew execution must not map to a serializable SV history")
	}
}

func mvTxnOf(t *SITx) deps.MVTxn {
	start, commit, committed, reads, writes := t.MVTxn()
	return deps.MVTxn{Tx: t.ID(), Start: start, Commit: commit, Committed: committed, Reads: reads, Writes: writes}
}

// Concurrent stress: total balance is preserved by transfer transactions
// (each writes both accounts, so FCW serializes them); all aborts are
// ErrWriteConflict.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	db := NewDB()
	const accounts = 8
	var tuples []data.Tuple
	for i := 0; i < accounts; i++ {
		tuples = append(tuples, data.Tuple{Key: data.Key(fmt.Sprintf("acct:%d", i)), Row: data.Scalar(100)})
	}
	db.Load(tuples...)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				from := data.Key(fmt.Sprintf("acct:%d", (seed+i)%accounts))
				to := data.Key(fmt.Sprintf("acct:%d", (seed+i+1)%accounts))
				tx, _ := db.Begin(engine.SnapshotIsolation)
				fv, err := engine.GetVal(tx, from)
				if err != nil {
					_ = tx.Abort()
					continue
				}
				tv, _ := engine.GetVal(tx, to)
				_ = engine.PutVal(tx, from, fv-1)
				_ = engine.PutVal(tx, to, tv+1)
				if err := tx.Commit(); err != nil && !errors.Is(err, engine.ErrWriteConflict) {
					t.Errorf("unexpected commit error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for i := 0; i < accounts; i++ {
		total += db.ReadCommittedRow(data.Key(fmt.Sprintf("acct:%d", i))).Val()
	}
	if total != accounts*100 {
		t.Fatalf("total = %d, want %d (FCW must prevent lost updates)", total, accounts*100)
	}
}
