package mvcc

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

func load(db *DB) {
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(1)}, data.Tuple{Key: "y", Row: data.Scalar(2)})
}

// TestMixedSnapshotVsStatementReads: one SI and one RC transaction read the
// same store while a third commits — the SI snapshot stays pinned, the RC
// statement snapshot advances.
func TestMixedSnapshotVsStatementReads(t *testing.T) {
	db := NewDB()
	load(db)
	si, err := db.Begin(engine.SnapshotIsolation)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := db.Begin(engine.ReadConsistency)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.GetVal(si, "x"); v != 1 {
		t.Fatalf("SI first read: %d", v)
	}
	if v, _ := engine.GetVal(rc, "x"); v != 1 {
		t.Fatalf("RC first read: %d", v)
	}

	w, _ := db.Begin(engine.ReadConsistency)
	if err := engine.PutVal(w, "x", 100); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if v, _ := engine.GetVal(si, "x"); v != 1 {
		t.Errorf("SI reread moved off its snapshot: %d", v)
	}
	if v, _ := engine.GetVal(rc, "x"); v != 100 {
		t.Errorf("RC statement snapshot did not advance: %d", v)
	}
	if err := si.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestRCCommitTriggersSIFirstCommitterWins: an RC transaction's commit
// inside an SI writer's execution interval must fail the SI commit — the
// cross-kind conflict the shared store and stripe-latched installs exist
// for.
func TestRCCommitTriggersSIFirstCommitterWins(t *testing.T) {
	db := NewDB()
	load(db)
	si, _ := db.Begin(engine.SnapshotIsolation)
	if err := engine.PutVal(si, "x", 10); err != nil {
		t.Fatal(err)
	}
	rc, _ := db.Begin(engine.ReadConsistency)
	if err := engine.PutVal(rc, "x", 20); err != nil {
		t.Fatal(err) // SI buffers privately, so the RC write lock is free
	}
	if err := rc.Commit(); err != nil {
		t.Fatal(err)
	}
	err := si.Commit()
	if !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("SI commit after RC commit of the same key: err = %v, want first-committer-wins", err)
	}
	if v := db.ReadCommittedRow("x").Val(); v != 20 {
		t.Fatalf("committed x = %d, want the RC writer's 20", v)
	}
}

// TestSharedIDSequence: transaction ids stay unique across the two kinds.
func TestSharedIDSequence(t *testing.T) {
	db := NewDB()
	load(db)
	a, _ := db.Begin(engine.SnapshotIsolation)
	b, _ := db.Begin(engine.ReadConsistency)
	c, _ := db.Begin(engine.SnapshotIsolation)
	if a.ID() == b.ID() || b.ID() == c.ID() || a.ID() == c.ID() {
		t.Fatalf("duplicate ids: %d %d %d", a.ID(), b.ID(), c.ID())
	}
}

// mapOverlay is the overlay Select used before the sorted merge, kept as
// the reference: rebuild the base as a map, apply every own write, and
// re-sort.
func mapOverlay(p predicate.P, base []data.Tuple, writes map[data.Key]data.Row) []data.Tuple {
	merged := map[data.Key]data.Row{}
	for _, b := range base {
		merged[b.Key] = b.Row
	}
	for key, row := range writes {
		if row != nil && p.Match(data.Tuple{Key: key, Row: row}) {
			merged[key] = row
		} else {
			delete(merged, key)
		}
	}
	out := make([]data.Tuple, 0, len(merged))
	for key, row := range merged {
		out = append(out, data.Tuple{Key: key, Row: row})
	}
	data.SortTuples(out)
	return out
}

// TestSelectOverlaysOwnWrites: Select lays the transaction's own inserts,
// updates and deletes — inside the scanned range, outside it, and moving
// rows across the predicate's value term — over the snapshot exactly as
// the map overlay did, at both multiversion levels.
func TestSelectOverlaysOwnWrites(t *testing.T) {
	type write struct {
		key data.Key
		val int64 // < 0 deletes
	}
	inRange := predicate.KeyRange{Lo: "k2", Hi: "k7"}
	big := predicate.Field{Name: data.ValField, Op: predicate.GE, Arg: 50}
	preds := []predicate.P{inRange, predicate.And{L: inRange, R: big}, big, predicate.True{}, predicate.KeyRange{Lo: "k7", Hi: "k2"}}
	cases := []struct {
		name   string
		writes []write
	}{
		{"none", nil},
		{"update inside", []write{{"k4", 99}}},
		{"update outside", []write{{"k8", 99}}},
		{"update out of the value term", []write{{"k6", 1}}},
		{"update into the value term", []write{{"k2", 77}}},
		{"insert inside", []write{{"k3", 60}}},
		{"insert first and last of range", []write{{"k2a", 5}, {"k1", 5}, {"k6z", 90}, {"k7", 90}}},
		{"insert outside", []write{{"k0", 60}, {"k9", 60}}},
		{"delete inside", []write{{"k4", -1}}},
		{"delete outside", []write{{"k8", -1}}},
		{"delete absent", []write{{"k5", -1}}},
		{"delete every row", []write{{"k2", -1}, {"k4", -1}, {"k6", -1}, {"k8", -1}}},
		{"insert then delete", []write{{"k3", 60}, {"k3", -1}}},
		{"delete then reinsert", []write{{"k4", -1}, {"k4", 70}}},
		{"write order against key order", []write{{"k6", 66}, {"k5", 55}, {"k3", 33}, {"k4", -1}}},
	}
	for _, level := range []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency} {
		for _, c := range cases {
			db := NewDB()
			db.Load(
				data.Tuple{Key: "k2", Row: data.Scalar(20)}, data.Tuple{Key: "k4", Row: data.Scalar(40)},
				data.Tuple{Key: "k6", Row: data.Scalar(60)}, data.Tuple{Key: "k8", Row: data.Scalar(80)},
			)
			tx, err := db.Begin(level)
			if err != nil {
				t.Fatal(err)
			}
			own := map[data.Key]data.Row{}
			for _, w := range c.writes {
				if w.val < 0 {
					err, own[w.key] = tx.Delete(w.key), nil
				} else {
					err, own[w.key] = engine.PutVal(tx, w.key, w.val), data.Scalar(w.val)
				}
				if err != nil {
					t.Fatalf("%s/%s: write %s: %v", level, c.name, w.key, err)
				}
			}
			for _, p := range preds {
				got, err := tx.Select(p)
				if err != nil {
					t.Fatal(err)
				}
				// Nothing commits during the test, so the transaction's
				// snapshot and every statement snapshot are the watermark.
				want := mapOverlay(p, db.store.SelectAt(p, db.oracle.Safe()), own)
				if !slices.EqualFunc(got, want, func(a, b data.Tuple) bool { return a.Key == b.Key && a.Row.Equal(b.Row) }) {
					t.Errorf("%s/%s: Select(%s)\n got %v\nwant %v", level, c.name, p, got, want)
				}
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCommitReturnsAtWatermark is the session guarantee: Commit returns
// only once the installed watermark has reached its commit timestamp, so
// the snapshot the same session takes next contains its own last commit —
// with other sessions committing disjoint keys in between. Run with -race
// on more than one core.
func TestCommitReturnsAtWatermark(t *testing.T) {
	for _, level := range []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency} {
		db := NewDB()
		const sessions, commits = 4, 200
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(key data.Key) {
				defer wg.Done()
				for i := int64(1); i <= commits; i++ {
					tx, _ := db.Begin(level)
					if err := engine.PutVal(tx, key, i); err != nil {
						t.Errorf("%s: put %s: %v", level, key, err)
						return
					}
					if err := tx.Commit(); err != nil {
						t.Errorf("%s: commit %s=%d: %v", level, key, i, err)
						return
					}
					if got := db.ReadCommittedRow(key).Val(); got != i {
						t.Errorf("%s: %s = %d right after committing %d", level, key, got, i)
						return
					}
				}
			}(data.Key(fmt.Sprintf("s%d", s)))
		}
		wg.Wait()
	}
}
