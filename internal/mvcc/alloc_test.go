package mvcc

import (
	"fmt"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// siTransferAllocs is the allocation count of one SNAPSHOT ISOLATION
// Get/Get/Put/Put/Commit on a warmed DB: the Tx (1) and its write-set map
// (2: the map and its first group). Nothing else allocates: rows are
// immutable values, so Get hands out the stored row, Put buffers the row it
// is given and Install keeps it as the version; the read and write records
// and the write set's stripe list fit the Tx's inline buffers; and the
// stripe latches take no closure.
const siTransferAllocs = 3

// rcTransferAllocs is the same transaction at READ CONSISTENCY: the SI
// count plus the two statement reads' records, a slice that grows twice.
// The write locks' immediate grants allocate nothing.
const rcTransferAllocs = 5

func transferAllocs(t *testing.T, level engine.Level) float64 {
	t.Helper()
	db := NewDB()
	load(db)
	rx, ry := data.Scalar(3), data.Scalar(4)
	txn := func() {
		tx, err := db.Begin(level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get("x"); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Get("y"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put("x", rx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put("y", ry); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the oracle's registry, the chains and the lock manager's
	// per-transaction slots.
	for i := 0; i < 256; i++ {
		txn()
	}
	return testing.AllocsPerRun(100, txn)
}

func TestTransferAllocs(t *testing.T) {
	if n := transferAllocs(t, engine.SnapshotIsolation); n > siTransferAllocs {
		t.Errorf("SNAPSHOT ISOLATION Get/Get/Put/Put/Commit: %.0f allocs, want <= %d", n, siTransferAllocs)
	}
	if n := transferAllocs(t, engine.ReadConsistency); n > rcTransferAllocs {
		t.Errorf("READ CONSISTENCY Get/Get/Put/Put/Commit: %.0f allocs, want <= %d", n, rcTransferAllocs)
	}
}

// resultSink keeps resultAllocs' slice on the heap, where a scan's result
// lives.
var resultSink []data.Tuple

// resultAllocs is the allocation count of growing a result slice to n
// tuples by append, the way the store builds a scan's answer.
func resultAllocs(n int) float64 {
	return testing.AllocsPerRun(10, func() {
		resultSink = nil
		for i := 0; i < n; i++ {
			resultSink = append(resultSink, data.Tuple{})
		}
	})
}

// An SI scan costs the same number of allocations over 32 rows as over
// 256, apart from growing its result slice: the rows it returns are the
// stored versions themselves.
func TestSISelectAllocsIndependentOfRows(t *testing.T) {
	db := NewDB()
	for i := 0; i < 256; i++ {
		db.Load(data.Tuple{Key: data.Key(fmt.Sprintf("r:%03d", i)), Row: data.Scalar(int64(i))})
	}
	scan := func(rows int) float64 {
		p := predicate.KeyRange{Lo: "r:000", Hi: data.Key(fmt.Sprintf("r:%03d", rows))}
		txn := func() {
			tx, err := db.Begin(engine.SnapshotIsolation)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tx.Select(p); err != nil || len(got) != rows {
				t.Fatalf("Select = %d rows, %v; want %d", len(got), err, rows)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			txn()
		}
		return testing.AllocsPerRun(50, txn) - resultAllocs(rows)
	}
	if small, large := scan(32), scan(256); small != large {
		t.Errorf("SNAPSHOT ISOLATION Select allocates %.0f objects over 32 rows and %.0f over 256, besides its result", small, large)
	}
}
