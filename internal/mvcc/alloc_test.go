package mvcc

import (
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
)

// siTransferAllocs is the allocation count of one SNAPSHOT ISOLATION
// Get/Get/Put/Put/Commit on a warmed DB: the Tx (1) and its write-set map
// (2: the map and its first group), and the two rows Get hands out and the
// two copies Put keeps (4 one-field maps, 2 allocations each). Nothing else
// allocates: the before-image reads share the stored rows, the read and
// write records and the write set's stripe list fit the Tx's inline
// buffers, the stripe latches take no closure, and Install keeps the
// copies Put made.
const siTransferAllocs = 11

// rcTransferAllocs is the same transaction at READ CONSISTENCY: the SI
// count plus the two statement reads' records, a slice that grows twice.
// The write locks' immediate grants allocate nothing.
const rcTransferAllocs = 13

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
