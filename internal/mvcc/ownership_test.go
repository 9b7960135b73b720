package mvcc

import (
	"errors"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// Rows cross the engine boundary as shared immutable values, at both
// levels. What a caller keeps is its own: changing the map it built a row
// from changes nothing the engine sees — not its own later reads, not
// other transactions' reads, not the committed version chains or the
// store's snapshot, and not who wins first-committer-wins. What the engine
// hands out is the row it stores, uncopied: Get, Select, Fetch, Current
// and ReadCommittedRow return the committed row, a transaction's own
// writes come back as the rows it handed in, and commit installs those
// same rows as the new versions.
func TestRowsCrossingTheBoundaryAreCallerOwned(t *testing.T) {
	for _, level := range []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency} {
		t.Run(level.String(), func(t *testing.T) {
			db := NewDB()
			db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"dept": 1})}, data.Tuple{Key: "e2", Row: data.NewRow(map[string]int64{"dept": 1})})
			dept1 := predicate.MustParse("dept == 1")
			begin := func(level engine.Level) engine.Tx {
				t.Helper()
				tx, err := db.Begin(level)
				if err != nil {
					t.Fatal(err)
				}
				return tx
			}
			wantRow := func(tx engine.Tx, key data.Key, want data.Row) {
				t.Helper()
				if row, err := tx.Get(key); err != nil || !row.Equal(want) {
					t.Fatalf("T%d Get(%s) = %v, %v; want %v", tx.ID(), key, row, err, want)
				}
			}
			// An SI transaction whose snapshot predates everything below: it
			// must keep seeing the loaded rows, and lose first-committer-wins
			// on e1 once T1 has committed it.
			rival := begin(engine.SnapshotIsolation)

			// Rows handed out.
			t1 := begin(level)
			stored := db.ReadCommittedRow("e1")
			row, err := t1.Get("e1")
			if err != nil || row != stored {
				t.Fatalf("Get(e1) = %p, %v; want the stored row %p", row, err, stored)
			}
			rows, err := t1.Select(dept1)
			if err != nil || len(rows) != 2 || rows[0].Row != stored {
				t.Fatalf("Select = %v, %v; want the stored rows", rows, err)
			}
			cur, err := t1.OpenCursor(dept1)
			if err != nil {
				t.Fatal(err)
			}
			fetched, err := cur.Fetch() // e1
			if err != nil || fetched.Row != stored {
				t.Fatalf("Fetch = %v, %v; want the stored row", fetched, err)
			}
			current, err := cur.Current()
			if err != nil || current.Row != stored {
				t.Fatalf("Current = %v, %v; want the stored row", current, err)
			}
			for _, key := range []data.Key{"e1", "e2"} {
				wantRow(t1, key, data.NewRow(map[string]int64{"dept": 1}))
				if got := db.ReadCommittedRow(key); !got.Equal(data.NewRow(map[string]int64{"dept": 1})) {
					t.Fatalf("ReadCommittedRow(%s) = %v, want {dept:1}", key, got)
				}
			}

			// Rows handed in, and own writes handed back out.
			putFields := map[string]int64{"dept": 1, "v": 2}
			put := data.NewRow(putFields)
			if err := t1.Put("e1", put); err != nil {
				t.Fatal(err)
			}
			putFields["v"] = 7
			if own, err := t1.Get("e1"); err != nil || own != put {
				t.Fatalf("Get(e1) over an own write = %v, %v; want the row handed in", own, err)
			}
			if _, err := cur.Fetch(); err != nil { // e2
				t.Fatal(err)
			}
			updFields := map[string]int64{"dept": 1, "v": 3}
			upd := data.NewRow(updFields)
			if err := cur.UpdateCurrent(upd); err != nil {
				t.Fatal(err)
			}
			updFields["v"] = 7
			rows, err = t1.Select(dept1)
			if err != nil || len(rows) != 2 || rows[0].Row != put || rows[1].Row != upd {
				t.Fatalf("Select over own writes = %v, %v; want the rows handed in", rows, err)
			}
			_ = cur.Close()
			wantRow(t1, "e1", data.NewRow(map[string]int64{"dept": 1, "v": 2}))
			wantRow(t1, "e2", data.NewRow(map[string]int64{"dept": 1, "v": 3}))

			// Nobody else sees T1's rows before it commits.
			other := begin(level)
			wantRow(other, "e1", data.NewRow(map[string]int64{"dept": 1}))
			wantRow(other, "e2", data.NewRow(map[string]int64{"dept": 1}))
			if err := other.Commit(); err != nil {
				t.Fatal(err)
			}

			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}

			// The committed versions are the rows that were handed in.
			committed := map[data.Key]data.Row{"e1": put, "e2": upd}
			for key, want := range committed {
				chain := db.Chain(key)
				if len(chain) != 2 || !chain[0].Row.Equal(data.NewRow(map[string]int64{"dept": 1})) || chain[1].Row != want {
					t.Fatalf("Chain(%s) = %v, want {dept:1} then %v", key, chain, want)
				}
			}
			if !put.Equal(data.NewRow(map[string]int64{"dept": 1, "v": 2})) || !upd.Equal(data.NewRow(map[string]int64{"dept": 1, "v": 3})) {
				t.Fatalf("committed rows changed with their maps: %v, %v", put, upd)
			}
			snap := db.store.SnapshotAt(db.oracle.Safe())
			if len(snap) != 2 || !snap[0].Row.Equal(committed["e1"]) || !snap[1].Row.Equal(committed["e2"]) {
				t.Fatalf("SnapshotAt = %v, want %v", snap, committed)
			}
			after := begin(level)
			for key, want := range committed {
				wantRow(after, key, want)
			}
			if err := after.Commit(); err != nil {
				t.Fatal(err)
			}

			// The rival still reads its snapshot, and first-committer-wins
			// still convicts it on e1.
			wantRow(rival, "e1", data.NewRow(map[string]int64{"dept": 1}))
			if err := rival.Put("e1", data.NewRow(map[string]int64{"dept": 2})); err != nil {
				t.Fatal(err)
			}
			if err := rival.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
				t.Fatalf("rival Commit = %v, want ErrWriteConflict", err)
			}
		})
	}
}
