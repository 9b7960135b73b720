package mvcc

import (
	"errors"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// Rows cross the engine boundary by copy, at both levels: a caller that
// mutates a row it got from Get, Select, Fetch, Current or
// ReadCommittedRow, or a row it handed to Put or UpdateCurrent, changes
// nothing the engine sees — not its own later reads, not other
// transactions' reads, not the committed version chains or the store's
// snapshot, and not who wins first-committer-wins.
func TestRowsCrossingTheBoundaryAreCallerOwned(t *testing.T) {
	for _, level := range []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency} {
		t.Run(level.String(), func(t *testing.T) {
			db := NewDB()
			db.Load(data.Tuple{Key: "e1", Row: data.Row{"dept": 1}}, data.Tuple{Key: "e2", Row: data.Row{"dept": 1}})
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
			row, err := t1.Get("e1")
			if err != nil {
				t.Fatal(err)
			}
			row["dept"] = 9
			rows, err := t1.Select(dept1)
			if err != nil || len(rows) != 2 {
				t.Fatalf("Select = %v, %v", rows, err)
			}
			for _, r := range rows {
				r.Row["dept"] = 9
			}
			cur, err := t1.OpenCursor(dept1)
			if err != nil {
				t.Fatal(err)
			}
			fetched, err := cur.Fetch() // e1
			if err != nil {
				t.Fatal(err)
			}
			fetched.Row["dept"] = 9
			current, err := cur.Current()
			if err != nil {
				t.Fatal(err)
			}
			current.Row["dept"] = 9
			db.ReadCommittedRow("e2")["dept"] = 9
			for _, key := range []data.Key{"e1", "e2"} {
				wantRow(t1, key, data.Row{"dept": 1})
				if got := db.ReadCommittedRow(key); !got.Equal(data.Row{"dept": 1}) {
					t.Fatalf("ReadCommittedRow(%s) = %v, want {dept:1}", key, got)
				}
			}

			// Rows handed in, and own writes handed back out.
			put := data.Row{"dept": 1, "v": 2}
			if err := t1.Put("e1", put); err != nil {
				t.Fatal(err)
			}
			put["v"] = 7
			own, err := t1.Get("e1")
			if err != nil {
				t.Fatal(err)
			}
			own["v"] = 8
			if _, err := cur.Fetch(); err != nil { // e2
				t.Fatal(err)
			}
			upd := data.Row{"dept": 1, "v": 3}
			if err := cur.UpdateCurrent(upd); err != nil {
				t.Fatal(err)
			}
			upd["v"] = 7
			rows, err = t1.Select(dept1)
			if err != nil || len(rows) != 2 {
				t.Fatalf("Select over own writes = %v, %v", rows, err)
			}
			for _, r := range rows {
				r.Row["v"] = 9
			}
			_ = cur.Close()
			wantRow(t1, "e1", data.Row{"dept": 1, "v": 2})
			wantRow(t1, "e2", data.Row{"dept": 1, "v": 3})

			// Nobody else sees T1's rows before it commits, nor anything a
			// caller scribbled on.
			other := begin(level)
			wantRow(other, "e1", data.Row{"dept": 1})
			wantRow(other, "e2", data.Row{"dept": 1})
			if err := other.Commit(); err != nil {
				t.Fatal(err)
			}

			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}

			// The committed versions are the rows as they were handed in.
			committed := map[data.Key]data.Row{"e1": {"dept": 1, "v": 2}, "e2": {"dept": 1, "v": 3}}
			for key, want := range committed {
				chain := db.Chain(key)
				if len(chain) != 2 || !chain[0].Row.Equal(data.Row{"dept": 1}) || !chain[1].Row.Equal(want) {
					t.Fatalf("Chain(%s) = %v, want {dept:1} then %v", key, chain, want)
				}
				chain[1].Row["v"] = 9
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
			wantRow(rival, "e1", data.Row{"dept": 1})
			if err := rival.Put("e1", data.Row{"dept": 2}); err != nil {
				t.Fatal(err)
			}
			if err := rival.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
				t.Fatalf("rival Commit = %v, want ErrWriteConflict", err)
			}
		})
	}
}
