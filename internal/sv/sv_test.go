package sv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	if s.Get("x") != nil {
		t.Fatal("empty store returned a row")
	}
	if before := s.Put("x", data.Scalar(1)); before != nil {
		t.Fatal("insert returned a before-image")
	}
	if got := s.Get("x").Val(); got != 1 {
		t.Fatalf("Get = %d", got)
	}
	if before := s.Put("x", data.Scalar(2)); before.Val() != 1 {
		t.Fatalf("update before-image = %v", before)
	}
	if before := s.Delete("x"); before.Val() != 2 {
		t.Fatalf("delete before-image = %v", before)
	}
	if s.Exists("x") {
		t.Fatal("deleted row still exists")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(1))
	r := s.Get("x")
	r[data.ValField] = 99
	if s.Get("x").Val() != 1 {
		t.Fatal("Get leaked internal storage")
	}
}

func TestRestore(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(1))
	s.Restore("x", data.Scalar(5))
	if s.Get("x").Val() != 5 {
		t.Fatal("restore of non-nil image")
	}
	s.Restore("x", nil)
	if s.Exists("x") {
		t.Fatal("restore of nil image should delete")
	}
}

func TestSelectAndSnapshot(t *testing.T) {
	s := NewStore()
	s.Load(
		data.Tuple{Key: "e1", Row: data.Row{"active": 1}},
		data.Tuple{Key: "e2", Row: data.Row{"active": 0}},
		data.Tuple{Key: "e3", Row: data.Row{"active": 1}},
	)
	got := s.Select(predicate.MustParse("active == 1"))
	if len(got) != 2 || got[0].Key != "e1" || got[1].Key != "e3" {
		t.Fatalf("Select = %v", got)
	}
	if len(s.Snapshot()) != 3 || s.Len() != 3 {
		t.Fatal("Snapshot/Len wrong")
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "e1" || keys[2] != "e3" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestUndoLogRollback(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(10))
	var u UndoLog
	u.Note("x", s.Put("x", data.Scalar(20)))
	u.Note("y", s.Put("y", data.Scalar(1))) // insert: before nil
	u.Note("x", s.Put("x", data.Scalar(30)))
	if u.Len() != 3 {
		t.Fatalf("undo len = %d", u.Len())
	}
	u.Rollback(s)
	if s.Get("x").Val() != 10 {
		t.Fatalf("x after rollback = %v", s.Get("x"))
	}
	if s.Exists("y") {
		t.Fatal("inserted row survived rollback")
	}
	if u.Len() != 0 {
		t.Fatal("undo log not cleared")
	}
}

// The paper's §3 recovery argument: with dirty writes (no long write
// locks), before-image undo corrupts the database. w1[x] w2[x] a1 —
// rolling back T1 restores T1's before-image and wipes out T2's update.
func TestDirtyWriteBreaksUndo(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(0)) // initial committed value
	var u1 UndoLog
	u1.Note("x", s.Put("x", data.Scalar(1))) // w1[x=1], before-image 0
	var u2 UndoLog
	u2.Note("x", s.Put("x", data.Scalar(2))) // w2[x=2] dirty!, before-image 1
	u1.Rollback(s)                           // a1
	// T1's rollback restored 0 — T2's committed-to-be update of 2 is gone.
	if got := s.Get("x").Val(); got != 0 {
		t.Fatalf("x = %d (expected the paper's corruption: T2's write wiped)", got)
	}
	// And if T2 now also aborts, its undo restores 1 — T1's uncommitted
	// value resurrects. Either way the database is wrong.
	u2.Rollback(s)
	if got := s.Get("x").Val(); got != 1 {
		t.Fatalf("x = %d after both rollbacks (expected 1, the resurrected dirty value)", got)
	}
}

func TestUndoRecordsExposed(t *testing.T) {
	var u UndoLog
	u.Note("x", data.Scalar(1))
	rs := u.Records()
	if len(rs) != 1 || rs[0].Key != "x" || rs[0].Before.Val() != 1 {
		t.Fatalf("records = %v", rs)
	}
}

// scanPredicates is the predicate mix the indexed scan must answer exactly
// as a filter over every row would: every key-addressing form KeyBounds
// understands (empty and inverted ranges included), key and value terms
// mixed under And/Or, and forms that say nothing about keys.
func scanPredicates(rng *rand.Rand, key func() data.Key) []predicate.P {
	val := predicate.Field{Name: data.ValField, Op: predicate.GE, Arg: int64(rng.Intn(100))}
	lo, hi := key(), key()
	return []predicate.P{
		predicate.True{},
		val,
		predicate.KeyRange{Lo: lo, Hi: hi}, // inverted (empty) half the time
		predicate.KeyRange{Lo: lo, Hi: lo},
		predicate.KeyRange{Lo: "", Hi: "\xff"},
		predicate.KeyEq{Key: key()},
		predicate.KeyPrefix{Prefix: string(key()[:3])},
		predicate.KeyPrefix{Prefix: ""},
		predicate.And{L: predicate.KeyRange{Lo: lo, Hi: hi}, R: val},
		predicate.And{L: val, R: predicate.KeyPrefix{Prefix: string(key()[:2])}},
		predicate.And{L: predicate.KeyEq{Key: key()}, R: predicate.KeyEq{Key: key()}},
		predicate.Or{L: predicate.KeyEq{Key: key()}, R: predicate.KeyRange{Lo: lo, Hi: hi}},
		predicate.Or{L: predicate.KeyRange{Lo: lo, Hi: hi}, R: val},
		predicate.Not{X: predicate.KeyRange{Lo: lo, Hi: hi}},
	}
}

// TestSelectMatchesFullScan: after random Load/Put/Delete/Restore
// sequences, Select through the ordered index returns exactly what
// filtering every row does, at 1, 4 and 16 stripes.
func TestSelectMatchesFullScan(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := rand.New(rand.NewSource(int64(17 + shards)))
		key := func() data.Key { return data.Key(fmt.Sprintf("k%02d", rng.Intn(60))) }
		s := NewStoreShards(shards)
		ref := map[data.Key]data.Row{} // the model: every row, no index
		for step := 0; step < 600; step++ {
			k, row := key(), data.Scalar(int64(rng.Intn(100)))
			switch rng.Intn(6) {
			case 0:
				s.Load(data.Tuple{Key: k, Row: row})
				ref[k] = row
			case 1, 2:
				s.Put(k, row)
				ref[k] = row
			case 3:
				s.Delete(k)
				delete(ref, k)
			case 4:
				s.Restore(k, row)
				ref[k] = row
			case 5:
				s.Restore(k, nil)
				delete(ref, k)
			}
			if step%20 != 0 {
				continue
			}
			for _, p := range scanPredicates(rng, key) {
				var want []data.Tuple
				for rk, rr := range ref {
					if tp := (data.Tuple{Key: rk, Row: rr}); p.Match(tp) {
						want = append(want, tp)
					}
				}
				data.SortTuples(want)
				if got := s.Select(p); !sameTuples(got, want) {
					t.Fatalf("shards=%d step %d: Select(%s)\n got %v\nwant %v", shards, step, p, got, want)
				}
			}
			if got, want := s.Keys(), data.Keys(s.Snapshot()); !slices.Equal(got, want) {
				t.Fatalf("shards=%d step %d: Keys = %v, Snapshot keys = %v", shards, step, got, want)
			}
		}
	}
}

func sameTuples(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !a[i].Row.Equal(b[i].Row) {
			return false
		}
	}
	return true
}
