package locking

import (
	"fmt"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// serializableTxnAllocs is the allocation count of one SERIALIZABLE
// Get/Get/Put/Put/Commit on a warmed DB: the Tx (1) and the undo log's two
// appends (2). Nothing else allocates: rows are immutable values, so Get
// hands out the stored row and Put stores the row it is given; lock
// images (the before-image read at the grant included) and the undo log
// share them too; and the lock manager's immediate grants are
// allocation-free.
const serializableTxnAllocs = 3

func TestSerializableTxnAllocs(t *testing.T) {
	for _, ph := range phantomProtocols {
		db := NewDB(WithPhantomProtection(ph))
		loadScalars(db, map[string]int64{"x": 1, "y": 2})
		rx, ry := data.Scalar(3), data.Scalar(4)
		txn := func() {
			tx, err := db.Begin(engine.Serializable)
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
		// Warm every per-transaction footprint slot of the lock manager.
		for i := 0; i < 256; i++ {
			txn()
		}
		if n := testing.AllocsPerRun(100, txn); n > serializableTxnAllocs {
			t.Errorf("%s: SERIALIZABLE Get/Get/Put/Put/Commit: %.0f allocs, want <= %d", ph, n, serializableTxnAllocs)
		}
	}
}

// serializableSelectAllocs caps the allocations of one SERIALIZABLE
// Select plus Commit on a warmed DB, result slice included, per phantom
// protocol (measured). The store sizes the result once at its key run's
// length, and a predicate lock is a value in the lock manager's table, so
// installing one allocates nothing there.
var serializableSelectAllocs = map[Phantom]float64{PhantomPredicate: 3, PhantomKeyrange: 6}

// A SERIALIZABLE scan costs the same number of allocations over 32 rows as
// over 256, and no more than serializableSelectAllocs: the store allocates
// its result once, the rows it returns are the stored ones, its per-row
// Shared locks (keyrange only: a long predicate lock takes none) are
// granted without allocating, and its phantom lock — predicate or
// key-range — installs in a number of allocations independent of the
// range.
func TestSerializableSelectAllocsIndependentOfRows(t *testing.T) {
	for _, ph := range phantomProtocols {
		db := NewDB(WithPhantomProtection(ph))
		for i := 0; i < 256; i++ {
			db.Load(data.Tuple{Key: data.Key(fmt.Sprintf("r:%03d", i)), Row: data.Scalar(int64(i))})
		}
		scan := func(rows int) float64 {
			p := predicate.KeyRange{Lo: "r:000", Hi: data.Key(fmt.Sprintf("r:%03d", rows))}
			txn := func() {
				tx, err := db.Begin(engine.Serializable)
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
			return testing.AllocsPerRun(50, txn)
		}
		small, large := scan(32), scan(256)
		if small != large {
			t.Errorf("%s: SERIALIZABLE Select+Commit allocates %.0f objects over 32 rows and %.0f over 256", ph, small, large)
		}
		if want := serializableSelectAllocs[ph]; small > want {
			t.Errorf("%s: SERIALIZABLE Select+Commit allocates %.0f objects, want <= %.0f", ph, small, want)
		}
	}
}
