package mv

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// scanPredicates is the predicate mix the indexed scan must answer exactly
// as a filter over every chain would: every key-addressing form KeyBounds
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

func sameTuples(a, b []data.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y data.Tuple) bool {
		return x.Key == y.Key && x.Row.Equal(y.Row)
	})
}

// TestSelectAtMatchesFullScan: after random Load/Install sequences —
// updates, tombstones, re-inserts over tombstones, brand-new keys —
// SelectAt through the ordered index returns exactly what resolving and
// filtering every chain does, at timestamps from before the first version
// of any key to past the last, at 1, 4 and 16 stripes.
func TestSelectAtMatchesFullScan(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := rand.New(rand.NewSource(int64(23 + shards)))
		key := func() data.Key { return data.Key(fmt.Sprintf("k%02d", rng.Intn(60))) }
		s := NewStoreShards(shards)
		ref := map[data.Key][]Version{} // the model: every chain, no index
		var ts TS
		for step := 0; step < 400; step++ {
			ts++
			if rng.Intn(8) == 0 {
				k, row := key(), data.Scalar(int64(rng.Intn(100)))
				s.Load(ts, data.Tuple{Key: k, Row: row})
				ref[k] = append(ref[k], Version{CommitTS: ts, Row: row})
			} else {
				writes := map[data.Key]data.Row{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					if rng.Intn(3) == 0 {
						writes[key()] = nil
					} else {
						writes[key()] = data.Scalar(int64(rng.Intn(100)))
					}
				}
				s.Install(ts, step, writes)
				for k, row := range writes {
					ref[k] = append(ref[k], Version{CommitTS: ts, Row: row, Deleted: row == nil})
				}
			}
			if step%20 != 0 {
				continue
			}
			for _, at := range []TS{0, 1, ts / 3, ts / 2, ts - 1, ts, ts + 5} {
				for _, p := range scanPredicates(rng, key) {
					var want []data.Tuple
					for k, chain := range ref {
						if tp := (data.Tuple{Key: k, Row: refRowAt(chain, at)}); p.Match(tp) {
							want = append(want, tp)
						}
					}
					data.SortTuples(want)
					if got := s.SelectAt(p, at); !sameTuples(got, want) {
						t.Fatalf("shards=%d step %d: SelectAt(%s, %d)\n got %v\nwant %v", shards, step, p, at, got, want)
					}
				}
			}
			// Keys lists every key with a chain, tombstoned or not.
			want := make([]data.Key, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.Sort(want)
			if got := s.Keys(); !slices.Equal(got, want) {
				t.Fatalf("shards=%d step %d: Keys = %v, want %v", shards, step, got, want)
			}
		}
	}
}

// refRowAt is the model's visibility rule: the row of the last version of
// chain committed at or before at; nil for none or a tombstone.
func refRowAt(chain []Version, at TS) (row data.Row) {
	for _, v := range chain {
		if v.CommitTS <= at {
			row = v.Row
		}
	}
	return row
}

// TestSelectAtStableUnderConcurrentInstalls: a range read at a fixed
// snapshot returns the identical slice every time while another goroutine
// installs new in-range keys and new versions of the scanned ones at later
// timestamps. Run with -race.
func TestSelectAtStableUnderConcurrentInstalls(t *testing.T) {
	s := NewStore()
	const snap = TS(1)
	for i := 0; i < 64; i += 2 {
		s.Load(snap, data.Tuple{Key: data.Key(fmt.Sprintf("r%03d", i)), Row: data.Scalar(int64(i))})
	}
	p := predicate.KeyRange{Lo: "r000", Hi: "r064"}
	want := s.SelectAt(p, snap)
	if len(want) != 32 {
		t.Fatalf("preload: %d rows in range, want 32", len(want))
	}

	installed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(installed)
		for i := 0; i < 2000; i++ {
			row := data.Scalar(int64(-i))
			if i%4 == 3 {
				row = nil // tombstones too
			}
			// i%64 walks the odd (brand-new, in-range) and even (scanned) keys.
			s.Install(snap+1+TS(i), i, map[data.Key]data.Row{data.Key(fmt.Sprintf("r%03d", i%64)): row})
		}
	}()
	for done := false; !done; {
		select {
		case <-installed:
			done = true // one more read, after the last install
		default:
		}
		if got := s.SelectAt(p, snap); !sameTuples(got, want) {
			t.Fatalf("SelectAt at snapshot %d moved under concurrent installs:\n got %v\nwant %v", snap, got, want)
		}
	}
	wg.Wait()
	if got := s.SelectAt(p, snap+2000); sameTuples(got, want) {
		t.Fatal("the installs never became visible at a later snapshot")
	}
}

// TestInstallOnExistingChainsSkipsIndex: the ordered index is written only
// when a chain is created, so installs onto preloaded keys — the whole of
// a transfer workload — leave it untouched and allocate only the cloned
// row (map header and bucket), the chain growth amortising to less than
// one. That holds with nothing forgotten (Install, horizon 0) and with the
// horizon moving right behind the commits, where chains stop growing at
// all; and a tombstoned key keeps its index entry exactly until the
// horizon has passed the tombstone and the clock hand has come round.
func TestInstallOnExistingChainsSkipsIndex(t *testing.T) {
	s := NewStore()
	keys := make([]data.Key, 64)
	for i := range keys {
		keys[i] = data.Key(fmt.Sprintf("acct:%06d", i))
		s.Load(1, data.Tuple{Key: keys[i], Row: data.Scalar(1000)})
	}
	indexed := func() (n int) {
		for _, sh := range s.shards {
			n += sh.index.Len()
		}
		return n
	}
	ts, i := TS(1), 0
	writes := map[data.Key]data.Row{}
	row := data.Scalar(7)
	for _, moving := range []bool{false, true} {
		allocs := testing.AllocsPerRun(640, func() {
			ts++
			i++
			key := keys[i%len(keys)]
			writes[key] = row
			if moving {
				s.InstallAbove(ts-1, ts, 1, writes)
			} else {
				s.Install(ts, 1, writes)
			}
			delete(writes, key)
		})
		if allocs != 2 {
			t.Errorf("Install on a preloaded key, horizon moving = %v: %v allocs, want 2", moving, allocs)
		}
		if got := indexed(); got != len(keys) {
			t.Errorf("index holds %d keys after installs onto %d preloaded chains", got, len(keys))
		}
	}
	for _, k := range keys {
		if n := s.VersionCount(k); n > 2 {
			t.Errorf("%s: %d versions with the horizon one commit behind, want at most 2", k, n)
		}
	}

	ts++
	tomb := ts
	s.InstallAbove(tomb-1, tomb, 1, map[data.Key]data.Row{"acct:new": row, keys[0]: nil})
	if got := indexed(); got != len(keys)+1 {
		t.Errorf("index holds %d keys, want %d: a new key joins, a tombstoned one stays while the horizon is below it", got, len(keys)+1)
	}
	// Fresh keys move the hand of the stripe they land on; enough of them
	// bring keys[0]'s round to it. Below the tombstone the hand passes by.
	gone := func() bool { return s.VersionCount(keys[0]) == 0 && !slices.Contains(s.Keys(), keys[0]) }
	for n := 0; n < 1000; n++ {
		ts++
		s.InstallAbove(tomb-1, ts, 1, map[data.Key]data.Row{data.Key(fmt.Sprintf("low:%04d", n)): row})
	}
	if gone() {
		t.Fatalf("%s was forgotten with the horizon (%d) still below its tombstone (%d)", keys[0], tomb-1, tomb)
	}
	for n := 0; n < 1000 && !gone(); n++ {
		ts++
		s.InstallAbove(tomb, ts, 1, map[data.Key]data.Row{data.Key(fmt.Sprintf("high:%04d", n)): row})
	}
	if !gone() {
		t.Fatalf("%s still has a chain (%d versions) or an index entry after 1000 hand-moving installs at a horizon past its tombstone",
			keys[0], s.VersionCount(keys[0]))
	}
	if _, chains := s.Reclaimed(); chains != 1 {
		t.Errorf("Reclaimed reports %d chains, want 1", chains)
	}
}

// TestWaitSafe: WaitSafe(ts) returns only once every timestamp up to ts
// is Done — Done(ts) alone is not enough while an earlier one is open.
func TestWaitSafe(t *testing.T) {
	var o Oracle
	a, b := o.Next(), o.Next()
	o.Done(b)
	returned := make(chan struct{})
	go func() {
		o.WaitSafe(b)
		close(returned)
	}()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let a WaitSafe that does not wait get as far as returning
	}
	select {
	case <-returned:
		t.Fatalf("WaitSafe(%d) returned with Safe = %d", b, o.Safe())
	default:
	}
	o.Done(a)
	<-returned
	if o.Safe() < b {
		t.Fatalf("Safe = %d after WaitSafe(%d)", o.Safe(), b)
	}
}
