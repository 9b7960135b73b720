package sv

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

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

// Get no longer copies, but what it returns still cannot change the
// store: a row has no mutator, and With builds a new row instead.
func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(1))
	r := s.Get("x")
	if changed := r.With(data.ValField, 99); changed.Val() != 99 {
		t.Fatalf("With = %v", changed)
	}
	if r.Val() != 1 || s.Get("x").Val() != 1 {
		t.Fatal("Get leaked internal storage")
	}
}

// Rows are immutable values, so the store shares them end to end: Load,
// Put and Restore keep the row they are given, Get and Select hand that
// same row out, and a later write replaces the stored row without
// changing any row already handed out.
func TestRowOwnership(t *testing.T) {
	s := NewStore()
	loaded := data.Scalar(1)
	s.Load(data.Tuple{Key: "x", Row: loaded})
	if s.Get("x") != loaded {
		t.Fatal("Load copied the row")
	}
	row := data.Scalar(2)
	before := s.Put("x", row)
	if before != loaded {
		t.Fatalf("Put's before-image = %p, want the loaded row %p", before, loaded)
	}
	if sel := s.Select(predicate.True{}); len(sel) != 1 || sel[0].Row != row || s.Get("x") != row {
		t.Fatal("Get/Select copied instead of sharing the stored row")
	}
	s.Put("x", data.Scalar(3))
	if before.Val() != 1 || row.Val() != 2 {
		t.Fatalf("a write changed rows already handed out: before %v, row %v", before, row)
	}
	s.Restore("x", before)
	if s.Get("x") != loaded {
		t.Fatal("Restore copied the before-image")
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
		data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})},
		data.Tuple{Key: "e2", Row: data.NewRow(map[string]int64{"active": 0})},
		data.Tuple{Key: "e3", Row: data.NewRow(map[string]int64{"active": 1})},
	)
	got := s.Select(predicate.MustParse("active == 1"))
	if len(got) != 2 || got[0].Key != "e1" || got[1].Key != "e3" {
		t.Fatalf("Select = %v", got)
	}
	if len(s.Select(predicate.True{})) != 3 || s.Len() != 3 {
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
			if got, want := s.Keys(), data.Keys(s.Select(predicate.True{})); !slices.Equal(got, want) {
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

// mapKeys returns the union of the stripe maps' keys, sorted: what the
// index must hold.
func mapKeys(s *Store) []data.Key {
	var keys []data.Key
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.rows {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	slices.Sort(keys)
	return keys
}

// TestIndexHoldsExactlyTheMapKeys: the store's ordered index holds exactly
// the union of the stripe maps' keys after every write, now that a Put or
// Restore over a present key leaves the index alone. The sequence mixes
// overwrites, deletes of present and absent keys and Restores over
// present and absent keys on a small key space, so every case repeats
// many times.
func TestIndexHoldsExactlyTheMapKeys(t *testing.T) {
	for _, shards := range []int{1, 4} {
		rng := rand.New(rand.NewSource(int64(31 + shards)))
		s := NewStoreShards(shards)
		for step := 0; step < 2000; step++ {
			k, row := data.Key(fmt.Sprintf("k%d", rng.Intn(8))), data.Scalar(int64(step))
			switch rng.Intn(5) {
			case 0, 1:
				s.Put(k, row)
			case 2:
				s.Delete(k)
			case 3:
				s.Restore(k, row)
			case 4:
				s.Restore(k, nil)
			}
			want := mapKeys(s)
			if got := s.index.Range("", "", false); !slices.Equal(got, want) {
				t.Fatalf("shards=%d step %d: index %v, map keys %v", shards, step, got, want)
			}
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("shards=%d step %d: Keys = %v, map keys %v", shards, step, got, want)
			}
			if s.Len() != len(want) {
				t.Fatalf("shards=%d step %d: Len = %d, map keys %v", shards, step, s.Len(), want)
			}
		}
	}
}

// TestPointPathSkipsTheIndexLatch: Get, Exists, and a Put or Restore
// over a present key never take the index latch, so transfer traffic
// never waits behind a scan or an insert. They must all finish while
// another holder keeps the index latch for writing.
func TestPointPathSkipsTheIndexLatch(t *testing.T) {
	s := NewStore()
	s.Put("x", data.Scalar(1))
	s.idx.Lock()
	defer s.idx.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Get("x")
		s.Exists("x")
		s.Put("x", data.Scalar(2))
		s.Restore("x", data.Scalar(3))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a point read or an update of a present key waited on the index latch")
	}
}

// TestRacingInsertsOfOneKeyHaveOneWinner: writers Put distinct rows into
// one absent key at once while a scanner walks the index. An insert
// re-checks presence once it holds the index and stripe latches, so
// exactly one Put sees the key absent (a nil before-image), and every
// other Put's before-image is the row some earlier Put installed: no row
// is the before-image of two Puts, which is what an undo log needs to
// restore the right row.
func TestRacingInsertsOfOneKeyHaveOneWinner(t *testing.T) {
	const writers, rounds = 4, 200
	s := NewStoreShards(4)
	for round := 0; round < rounds; round++ {
		key := data.Key(fmt.Sprintf("k%03d", round))
		rows := make([]data.Row, writers)
		befores := make([]data.Row, writers)
		for w := range rows {
			rows[w] = data.Scalar(int64(w))
		}
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(writers + 1)
		for w := 0; w < writers; w++ {
			go func(w int) {
				defer done.Done()
				start.Wait()
				befores[w] = s.Put(key, rows[w])
			}(w)
		}
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < 4; i++ {
				s.Select(predicate.KeyRange{Lo: "k", Hi: "l"})
			}
		}()
		start.Done()
		done.Wait()
		inserts, seen := 0, map[data.Row]int{}
		for w, b := range befores {
			if b == nil {
				inserts++
				continue
			}
			if !slices.Contains(rows, b) {
				t.Fatalf("round %d: Put %d returned a before-image no Put installed: %v", round, w, b)
			}
			if seen[b]++; seen[b] > 1 {
				t.Fatalf("round %d: row %v is the before-image of %d Puts", round, b, seen[b])
			}
		}
		if inserts != 1 {
			t.Fatalf("round %d: %d Puts returned a nil before-image, want exactly 1", round, inserts)
		}
	}
	if got, want := s.Keys(), mapKeys(s); !slices.Equal(got, want) || len(got) != rounds {
		t.Fatalf("index %v, map keys %v, want %d keys", got, want, rounds)
	}
}

// TestRacingKeySetWritesKeepScansExact: Put, Delete and Restore race over
// 8 keys beside Select and AppendRangeAnchors. Every scan comes back
// ascending and duplicate-free, every ceiling lies at or above the range,
// and once the writers stop, the index holds exactly the union of the
// stripe maps' keys.
func TestRacingKeySetWritesKeepScansExact(t *testing.T) {
	const writers, scanners, ops = 3, 2, 2000
	s := NewStoreShards(4)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(41 + w)))
			for i := 0; i < ops; i++ {
				k, row := data.Key(fmt.Sprintf("k%d", rng.Intn(8))), data.Scalar(int64(i))
				switch rng.Intn(5) {
				case 0, 1:
					s.Put(k, row)
				case 2:
					s.Delete(k)
				case 3:
					s.Restore(k, row)
				case 4:
					s.Restore(k, nil)
				}
			}
		}(w)
	}
	errs := make(chan error, scanners)
	for r := 0; r < scanners; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var runs data.KeyRuns
			for i := 0; i < ops; i++ {
				var p predicate.P = predicate.KeyRange{Lo: "k2", Hi: "k6"}
				if i%2 == 0 {
					p = predicate.True{}
				}
				keys := data.Keys(s.Select(p))
				runs.Reset()
				ceiling := s.AppendRangeAnchors(&runs, "k2", "k6", true)
				anchors := runs.Run(0)
				switch {
				case !strictlyAscending(keys):
					errs <- fmt.Errorf("Select returned %v", keys)
				case runs.NumRuns() != 1 || !strictlyAscending(anchors):
					errs <- fmt.Errorf("AppendRangeAnchors runs %v, ends %v", runs.Keys, runs.Ends)
				case ceiling != "" && ceiling < "k6":
					errs <- fmt.Errorf("AppendRangeAnchors ceiling %q is inside [k2, k6)", ceiling)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := s.Keys(), mapKeys(s); !slices.Equal(got, want) {
		t.Fatalf("index %v, map keys %v", got, want)
	}
}

func strictlyAscending(keys []data.Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return false
		}
	}
	return true
}
