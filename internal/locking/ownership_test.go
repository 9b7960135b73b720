package locking

import (
	"errors"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

var phantomProtocols = []Phantom{PhantomPredicate, PhantomKeyrange}

// Rows cross the engine boundary as shared immutable values. What a caller
// keeps is its own: changing the map it built a row from changes nothing
// the engine sees — not later reads, not the row images predicate and
// key-range conflicts are decided on, not the before-images rollback
// restores, not ReadCommittedRow. What the engine hands out is the row it
// stores, uncopied: Get, Select, Fetch and Current return the stored row,
// and a write stores the row it was handed.
func TestRowsCrossingTheBoundaryAreCallerOwned(t *testing.T) {
	for _, ph := range phantomProtocols {
		t.Run(ph.String(), func(t *testing.T) {
			db := NewDB(WithPhantomProtection(ph))
			db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"dept": 1})}, data.Tuple{Key: "e2", Row: data.NewRow(map[string]int64{"dept": 1})})
			dept1 := predicate.MustParse("dept == 1")
			wantDept := func(tx engine.Tx, key data.Key, want int64) {
				t.Helper()
				row, err := tx.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := row.Get("dept"); got != want {
					t.Fatalf("Get(%s) = %v, want dept %d", key, row, want)
				}
			}

			// Rows handed out.
			t1 := mustBegin(t, db, engine.Serializable)
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
			fetched, err := cur.Fetch()
			if err != nil || fetched.Row != stored {
				t.Fatalf("Fetch = %v, %v; want the stored row", fetched, err)
			}
			current, err := cur.Current()
			if err != nil || current.Row != stored {
				t.Fatalf("Current = %v, %v; want the stored row", current, err)
			}
			wantDept(t1, "e1", 1)
			wantDept(t1, "e2", 1)

			// Rows handed in.
			putFields := map[string]int64{"dept": 1, "v": 2}
			put := data.NewRow(putFields)
			if err := t1.Put("e1", put); err != nil {
				t.Fatal(err)
			}
			putFields["dept"] = 2
			if _, err := cur.Fetch(); err != nil { // e2
				t.Fatal(err)
			}
			updFields := map[string]int64{"dept": 1, "v": 3}
			upd := data.NewRow(updFields)
			if err := cur.UpdateCurrent(upd); err != nil {
				t.Fatal(err)
			}
			updFields["dept"] = 2
			if current, err := cur.Current(); err != nil || current.Row != upd {
				t.Fatalf("Current after UpdateCurrent = %v, %v; want the row handed in", current, err)
			}
			_ = cur.Close()
			if own, err := t1.Get("e1"); err != nil || own != put {
				t.Fatalf("Get(e1) after Put = %v, %v; want the row handed in", own, err)
			}
			wantDept(t1, "e2", 1)

			// T1's exclusive locks carry dept-1 images, so a dept == 2 scan
			// has nothing to wait for. Had the rows followed the callers'
			// maps, both the images and the stored rows would now say dept 2.
			scanned := make(chan error, 1)
			t2 := mustBegin(t, db, engine.Serializable)
			go func() {
				rows, err := t2.Select(predicate.MustParse("dept == 2"))
				if err == nil && len(rows) != 0 {
					err = errors.New("dept == 2 scan found rows")
				}
				if err == nil {
					err = t2.Commit()
				}
				scanned <- err
			}()
			select {
			case err := <-scanned:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				_ = t1.Abort()
				t.Fatalf("dept == 2 scan blocked on T1's writes: %v", <-scanned)
			}

			// Rollback restores the loaded rows.
			if err := t1.Abort(); err != nil {
				t.Fatal(err)
			}
			for _, key := range []data.Key{"e1", "e2"} {
				if got := db.ReadCommittedRow(key); !got.Equal(data.NewRow(map[string]int64{"dept": 1})) {
					t.Fatalf("%s after rollback = %v, want {dept:1}", key, got)
				}
			}

			// A committed write is the row that was handed in.
			t3 := mustBegin(t, db, engine.Serializable)
			putFields = map[string]int64{"dept": 1, "v": 5}
			put = data.NewRow(putFields)
			if err := t3.Put("e1", put); err != nil {
				t.Fatal(err)
			}
			putFields["v"] = 6
			if err := t3.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := db.ReadCommittedRow("e1"); got != put || !got.Equal(data.NewRow(map[string]int64{"dept": 1, "v": 5})) {
				t.Fatalf("e1 after commit = %v, want {dept:1, v:5}", got)
			}
		})
	}
}

// A deadlock victim's cursors refuse like every other op of the victim:
// opening one, and fetching, reading or updating through one opened
// before the refusal.
func TestDeadlockVictimCursorsRefused(t *testing.T) {
	for _, ph := range phantomProtocols {
		t.Run(ph.String(), func(t *testing.T) {
			db := NewDB(WithPhantomProtection(ph))
			loadScalars(db, map[string]int64{"x": 1, "y": 2})
			t1 := mustBegin(t, db, engine.Serializable)
			t2 := mustBegin(t, db, engine.Serializable)
			cur, err := t2.OpenCursor(predicate.True{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cur.Fetch(); err != nil { // x, now Shared-locked by T2
				t.Fatal(err)
			}
			if _, err := engine.GetVal(t1, "x"); err != nil {
				t.Fatal(err)
			}
			upgraded := make(chan error, 1)
			go func() { upgraded <- engine.PutVal(t1, "x", 10) }()
			for deadline := time.Now().Add(5 * time.Second); db.lm.QueueLen() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("T1's upgrade never queued")
				}
			}
			if err := engine.PutVal(t2, "x", 20); !errors.Is(err, engine.ErrDeadlock) {
				t.Fatalf("T2's upgrade = %v, want ErrDeadlock", err)
			}

			if _, err := t2.OpenCursor(predicate.True{}); !errors.Is(err, engine.ErrDeadlock) {
				t.Errorf("OpenCursor after refusal = %v, want ErrDeadlock", err)
			}
			if tup, err := cur.Fetch(); !errors.Is(err, engine.ErrDeadlock) {
				t.Errorf("Fetch after refusal = %v, %v; want ErrDeadlock", tup, err)
			}
			if tup, err := cur.Current(); !errors.Is(err, engine.ErrDeadlock) {
				t.Errorf("Current after refusal = %v, %v; want ErrDeadlock", tup, err)
			}
			if err := cur.UpdateCurrent(data.Scalar(30)); !errors.Is(err, engine.ErrDeadlock) {
				t.Errorf("UpdateCurrent after refusal = %v, want ErrDeadlock", err)
			}

			_ = t2.Abort()
			if err := <-upgraded; err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := db.ReadCommittedRow("x").Val(); got != 10 {
				t.Fatalf("x = %d, want 10", got)
			}
		})
	}
}
