package mv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"isolevel/internal/data"
)

// TestGCInvisibleToRegisteredSnapshots is the model check of forgetting:
// random Load / install / tombstone / re-insert / brand-new-key sequences
// go into a store that prunes at the oracle's horizon and into a reference
// store that never prunes, while snapshots are acquired (at the watermark
// and at historical timestamps) and released along the way. After every
// step, at every registered timestamp, the two stores answer alike: ReadAt
// on every key either has held, SelectAt over the 14 predicate shapes, the
// visible key set, and the first-committer-wins comparison
// LatestCommitTS(k) > ts.
func TestGCInvisibleToRegisteredSnapshots(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		rng := rand.New(rand.NewSource(int64(1995 + shards)))
		fresh := 0
		key := func() data.Key { return data.Key(fmt.Sprintf("k%02d", rng.Intn(60))) }
		s, ref := NewStoreShards(shards), NewStoreShards(shards)
		var o Oracle
		var held []TS
		acquired, refused := 0, 0

		for step := 0; step < 300; step++ {
			ts := o.Next()
			if rng.Intn(8) == 0 {
				tp := data.Tuple{Key: key(), Row: data.Scalar(int64(rng.Intn(100)))}
				s.Load(ts, tp)
				ref.Load(ts, tp)
			} else {
				writes := map[data.Key]data.Row{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					switch rng.Intn(6) {
					case 0, 1:
						writes[key()] = nil
					case 2:
						fresh++
						writes[data.Key(fmt.Sprintf("n%04d", fresh))] = data.Scalar(int64(fresh))
					default:
						writes[key()] = data.Scalar(int64(rng.Intn(100)))
					}
				}
				s.InstallAbove(o.Horizon(), ts, step, writes)
				ref.Install(ts, step, writes)
			}
			o.Done(ts)

			// Move the registry: snapshots come at the watermark and at
			// historical timestamps, and go in any order.
			switch op := rng.Intn(5); {
			case len(held) == 4:
				// Enough readers to compare at; the step is a release or nothing.
			case op == 0:
				held = append(held, o.Acquire())
				acquired++
			case op == 1:
				at := o.Horizon() + TS(rng.Intn(int(o.Safe()-o.Horizon())+1))
				if !o.AcquireAt(at) {
					t.Fatalf("shards=%d step %d: AcquireAt(%d) refused with Horizon %d", shards, step, at, o.Horizon())
				}
				held = append(held, at)
				acquired++
			}
			if len(held) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(held))
				o.Release(held[i])
				held = slices.Delete(held, i, i+1)
			}
			if h := o.Horizon(); h > 0 {
				if o.AcquireAt(h - 1) {
					t.Fatalf("shards=%d step %d: AcquireAt(%d) accepted below Horizon %d", shards, step, h-1, h)
				}
				refused++
			}
			if want := slices.Min(append([]TS{o.Safe()}, held...)); o.Horizon() != want {
				t.Fatalf("shards=%d step %d: Horizon = %d, want %d (Safe %d, held %v)", shards, step, o.Horizon(), want, o.Safe(), held)
			}
			if o.ActiveSnapshots() != len(held) {
				t.Fatalf("shards=%d step %d: ActiveSnapshots = %d, want %d", shards, step, o.ActiveSnapshots(), len(held))
			}

			// A reader arriving now, and every reader already there.
			now := o.Acquire()
			for _, at := range append([]TS{now}, held...) {
				compareStoresAt(t, fmt.Sprintf("shards=%d step %d ts %d", shards, step, at), s, ref, at, rng, key)
			}
			o.Release(now)
		}

		versions, chains := s.Reclaimed()
		if acquired == 0 || refused == 0 || versions == 0 || chains == 0 {
			t.Fatalf("shards=%d: the run exercised too little: %d acquired, %d refused, %d versions and %d chains reclaimed",
				shards, acquired, refused, versions, chains)
		}
		if r, _ := ref.Reclaimed(); r != 0 {
			t.Fatalf("shards=%d: the reference store forgot %d versions", shards, r)
		}
	}
}

// compareStoresAt fails the test unless s, which prunes, and ref, which
// does not, look alike to a reader registered at ts.
func compareStoresAt(t *testing.T, where string, s, ref *Store, at TS, rng *rand.Rand, key func() data.Key) {
	t.Helper()
	sKeys := map[data.Key]bool{}
	for _, k := range s.Keys() {
		if sKeys[k] = true; ref.VersionCount(k) == 0 {
			t.Fatalf("%s: Keys lists %s, which was never written", where, k)
		}
	}
	for _, k := range ref.Keys() {
		got, gotOK := s.ReadAt(k, at)
		want, wantOK := ref.ReadAt(k, at)
		if gotOK != wantOK || (wantOK && (got.CommitTS != want.CommitTS || got.Writer != want.Writer || !got.Row.Equal(want.Row))) {
			t.Fatalf("%s: ReadAt(%s) = %v, %v; reference %v, %v", where, k, got, gotOK, want, wantOK)
		}
		if wantOK && !sKeys[k] {
			t.Fatalf("%s: %s is visible and missing from Keys", where, k)
		}
		if got, want := s.LatestCommitTS(k) > at, ref.LatestCommitTS(k) > at; got != want {
			t.Fatalf("%s: LatestCommitTS(%s) > ts is %v (latest %d); reference %v (latest %d)",
				where, k, got, s.LatestCommitTS(k), want, ref.LatestCommitTS(k))
		}
	}
	for _, p := range scanPredicates(rng, key) {
		if got, want := s.SelectAt(p, at), ref.SelectAt(p, at); !sameTuples(got, want) {
			t.Fatalf("%s: SelectAt(%s)\n got %v\nwant %v", where, p, got, want)
		}
	}
}

// TestGCBoundsChainsAndIndex: with no snapshot held, what the store keeps
// is bounded by what is live, not by how much was ever committed — fresh
// keys inserted and deleted a hundred thousand times over leave the chain
// maps and the index within a small multiple of the live keys, and a
// hundred thousand updates of one key leave it two versions.
func TestGCBoundsChainsAndIndex(t *testing.T) {
	const live, churn = 200, 100000
	s := NewStoreShards(4)
	var o Oracle
	commit := func(writes map[data.Key]data.Row) {
		ts := o.Next()
		s.InstallAbove(o.Horizon(), ts, 1, writes)
		o.Done(ts)
	}
	ts := o.Next()
	for i := 0; i < live; i++ {
		s.Load(ts, data.Tuple{Key: data.Key(fmt.Sprintf("live:%04d", i)), Row: data.Scalar(1)})
	}
	o.Done(ts)

	rng := rand.New(rand.NewSource(7))
	row := data.Scalar(7)
	for i := 0; i < churn; i++ {
		// Fresh keys land all over the key space, not only past its end.
		k := data.Key(fmt.Sprintf("%c:%06d", 'a'+rune(rng.Intn(26)), i))
		commit(map[data.Key]data.Row{k: row})
		commit(map[data.Key]data.Row{k: nil})
	}
	chains, indexed := 0, 0
	for _, sh := range s.shards {
		if len(sh.chains) != sh.index.Len() {
			t.Errorf("a stripe holds %d chains and %d index entries", len(sh.chains), sh.index.Len())
		}
		chains += len(sh.chains)
		indexed += sh.index.Len()
	}
	if bound := 2*live + 8*s.ShardCount(); chains > bound || indexed > bound {
		t.Errorf("after %d insert-then-delete of fresh keys over %d live ones: %d chains, %d index entries, want at most %d",
			churn, live, chains, indexed, bound)
	}
	if got := len(s.SnapshotAt(o.Safe())); got != live {
		t.Errorf("%d rows visible, want the %d live ones", got, live)
	}

	for i := 0; i < churn; i++ {
		commit(map[data.Key]data.Row{"live:0000": data.Scalar(int64(i))})
	}
	if n := s.VersionCount("live:0000"); n > 2 {
		t.Errorf("%d versions of a key after %d updates with no snapshot held, want at most 2", n, churn)
	}
	if v, ok := s.ReadAt("live:0000", o.Safe()); !ok || v.Row.Val() != churn-1 {
		t.Errorf("ReadAt after the updates = %v, %v", v, ok)
	}
}

// TestOracleRegistrySteadyStateAllocatesNothing: acquiring and releasing
// snapshots, in and out of order, stays inside the registry's capacity.
func TestOracleRegistrySteadyStateAllocatesNothing(t *testing.T) {
	var o Oracle
	long := o.Acquire()
	allocs := testing.AllocsPerRun(1000, func() {
		o.Done(o.Next())
		a := o.Acquire()
		o.Done(o.Next())
		b := o.Acquire()
		if !o.AcquireAt(a) {
			t.Fatal("AcquireAt of a registered timestamp refused")
		}
		o.Release(a)
		o.Release(b)
		o.Release(a)
	})
	if allocs != 0 {
		t.Errorf("registry steady state: %v allocs per round, want 0", allocs)
	}
	if o.Horizon() != long {
		t.Errorf("Horizon = %d with a snapshot held at %d", o.Horizon(), long)
	}
	o.Release(long)
	if o.Horizon() != o.Safe() || o.ActiveSnapshots() != 0 {
		t.Errorf("after the last Release: Horizon %d, Safe %d, %d active", o.Horizon(), o.Safe(), o.ActiveSnapshots())
	}
	defer func() {
		if recover() == nil {
			t.Error("Release of an unregistered timestamp did not panic")
		}
	}()
	o.Release(long)
}
