package locking

import (
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
)

// serializableTxnAllocs is the allocation count of one SERIALIZABLE
// Get/Get/Put/Put/Commit on a warmed DB: the Tx (1), the two rows Get
// hands out and the two copies Put keeps (4 one-field maps, 2 allocations
// each: the map and its first bucket), and the undo log's two appends (2).
// Nothing in between allocates: lock images, the pre-lock peek and the
// undo log share the stored rows, and the lock manager's immediate grants
// are allocation-free.
const serializableTxnAllocs = 11

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
