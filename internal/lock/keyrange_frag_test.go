package lock

// Tests for the fragment-storage internals layered on the key-range
// protocol: the dead-anchor fragment GC, the above-range stale-anchor
// shadowing rule the coalesced install has to honor, and the densify step
// that keeps a new anchor from shadowing an older scan's cover.

import (
	"fmt"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// boundedSpec builds a bounded [lo, hi) spec with a static anchor list
// and ceiling (the store-free test shape).
func boundedSpec(p predicate.P, lo, hi, ceiling data.Key, anchors ...data.Key) RangeSpec {
	return RangeSpec{Pred: p, Anchors: anchors, Ceiling: ceiling, Lo: lo, Hi: hi, Bounded: true}
}

// A stale anchor sitting between a bounded scan's Hi and its ceiling —
// left behind by an aborted insert under an older scan — owns every gap
// position below it, so the newer scan must install a fragment there too:
// anchoring only at the ceiling would let the stale anchor shadow the
// scan's uppermost-gap coverage.
func TestStaleAnchorAboveRangeDoesNotShadowCeiling(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		m := NewManagerShards(shards)
		// T5 holds a whole-space scan anchored at {a}; T0 inserts r and
		// aborts, leaving the anchor r carrying T5's inherited fragment.
		mustRange(t, m, 5, rangeSpec(ge(50), "a"))
		if err := m.AcquireGap(0, "r", Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireItem(0, "r", X, Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(0)
		// T4 scans [a, p) with ceiling z: the store knows nothing of r
		// (the row is gone), but the gap below the stale anchor r is part
		// of T4's protected space — insert positions in [p, r) are not,
		// yet positions in [a, p) resolve to the covering anchor r.
		mustRange(t, m, 4, boundedSpec(ge(10), "a", "p", "z", "a"))
		got := make(chan error, 1)
		go func() { got <- m.AcquireGap(6, "g", Images{After: row(20)}) }()
		select {
		case <-got:
			t.Fatalf("shards=%d: stale above-range anchor shadowed the ceiling — matching insert admitted", shards)
		case <-time.After(50 * time.Millisecond):
		}
		m.ReleaseAll(4)
		if err := <-got; err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		m.ReleaseAll(5)
		m.ReleaseAll(6)
	}
}

// Fragment GC: anchors with no row, no item lock and no queued request
// are swept during drains, their fragments migrating to the successor
// anchor (deduplicated per handle) without any change in blocking.
func TestFragmentGCSweepsDeadAnchors(t *testing.T) {
	m := NewManagerShards(4)
	live := map[data.Key]bool{"b": true, "y": true}
	m.SetRowPresent(func(k data.Key) bool { return live[k] })
	mustRange(t, m, 1, rangeSpec(ge(100), "b", "y"))
	// An insert storm: each round inherits fragments onto a fresh key,
	// then aborts (the row never appears), leaving a dead anchor. Past
	// gcInheritThreshold inheritances, the drain inside ReleaseAll sweeps
	// them.
	for i := 0; i < 2*gcInheritThreshold; i++ {
		key := data.Key([]byte{'c', byte('a' + i%26), byte('a' + i/26)})
		tx := TxID(100 + i)
		if err := m.AcquireGap(tx, key, Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireItem(tx, key, X, Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(tx)
	}
	st := m.Stats()
	if st.FragGCs == 0 {
		t.Fatalf("no GC sweep after %d inheritances", 2*gcInheritThreshold)
	}
	if st.FragsReclaimed == 0 {
		t.Fatal("sweep reclaimed nothing despite duplicate coverage at the successor")
	}
	// Blocking is unchanged: a matching insert below the live anchor y
	// still waits on the scan's (migrated) coverage...
	got := make(chan error, 1)
	go func() { got <- m.AcquireGap(2, "x", Images{After: row(200)}) }()
	select {
	case <-got:
		t.Fatal("matching insert admitted after GC — coverage lost")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	// ...and release leaves no residue behind (the migrated fragments
	// were re-registered under their handle).
	m.ReleaseAll(2)
	if m.HoldingRange(1) {
		t.Fatal("range hold survived ReleaseAll")
	}
	if err := m.AcquireGap(3, "x", Images{After: row(200)}); err != nil {
		t.Fatal(err)
	}
}

// The supremum path of the GC: with every anchor dead and no successor,
// fragments migrate to the supremum and still cover the space above.
func TestFragmentGCMigratesToSupremum(t *testing.T) {
	m := NewManagerShards(2)
	m.SetRowPresent(func(data.Key) bool { return false })
	// Whole-space scan anchored only at a stale anchor (static spec): the
	// anchor is dead from the start.
	mustRange(t, m, 1, rangeSpec(ge(100), "m"))
	for i := 0; i < gcInheritThreshold+2; i++ {
		key := data.Key([]byte{'d', byte('a' + i%26), byte('a' + i/26)})
		tx := TxID(200 + i)
		if err := m.AcquireGap(tx, key, Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireItem(tx, key, X, Images{After: row(1)}); err != nil {
			t.Fatal(err)
		}
		m.ReleaseAll(tx)
	}
	if st := m.Stats(); st.FragGCs == 0 {
		t.Fatal("no GC sweep")
	}
	// All anchors are gone; the whole-space scan's coverage now rests on
	// the supremum — a matching insert anywhere must still block.
	got := make(chan error, 1)
	go func() { got <- m.AcquireGap(2, "zz", Images{After: row(150)}) }()
	select {
	case <-got:
		t.Fatal("matching insert admitted after supremum migration")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// gapBlocks reports whether tx's AcquireGap of key waits: it returns true
// as soon as the manager counts the request's wait, false if the request
// is granted first. done yields the request's eventual result.
func gapBlocks(t *testing.T, m *Manager, tx TxID, key data.Key, im Images) (blocked bool, done <-chan error) {
	t.Helper()
	before := m.Stats().GapWaits
	got := make(chan error, 1)
	go func() { got <- m.AcquireGap(tx, key, im) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-got:
			got <- err
			return false, got
		default:
		}
		if m.Stats().GapWaits > before {
			return true, got
		}
		if time.Now().After(deadline) {
			t.Fatalf("AcquireGap(T%d, %q) neither granted nor waiting after 5s", tx, key)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// The shadowing rule densify exists for: a scan that anchors a fragment at
// a key carrying none before — here e, resident in the lock table through
// an item lock but absent from the store — must first copy the key's
// pre-install cover there. Otherwise the new anchor owns the gap below it
// with only the new scan's fragment, and a write there that matches the
// older scan slips past it. The older scan's predicate runs over a
// field-only (unbounded) case, a bounded one, and one whose key bounds
// start exactly at the new anchor — the last case needs the write at e
// itself, since d5 lies below its bounds.
func TestDensifyInheritsShadowedCover(t *testing.T) {
	field := ge(10)
	for _, c := range []struct {
		name string
		t1   predicate.P
		at   data.Key
	}{
		{"field-only", field, "d5"},
		{"bounded", predicate.And{L: predicate.KeyRange{Lo: "a", Hi: "z"}, R: field}, "d5"},
		{"bounds-start-at-new-anchor", predicate.And{L: predicate.KeyRange{Lo: "e", Hi: "z"}, R: field}, "e"},
	} {
		for _, shards := range []int{1, 4, 16} {
			name := fmt.Sprintf("%s/shards=%d", c.name, shards)
			m := NewManagerShards(shards)
			// T1 scans [a, z) anchored at {c, m}: the gap (c, m] is owned
			// by T1's fragment at m.
			mustRange(t, m, 1, boundedSpec(c.t1, "a", "z", "", "c", "m"))
			// T2's S lock makes the absent key e lock-table resident, so
			// T3's scan of [d, f) — whose predicate no write below
			// satisfies — anchors a fragment at e, a new anchor in T1's
			// gap. Once T3's fragment is there, T2's lock may go.
			if err := m.AcquireItem(2, "e", S, Images{}); err != nil {
				t.Fatal(err)
			}
			mustRange(t, m, 3, boundedSpec(ge(1000), "d", "f", "m"))
			m.ReleaseAll(2)
			// T4 writes a row T1's predicate matches into the gap now owned
			// by e: it must wait for T1.
			blocked, done := gapBlocks(t, m, 4, c.at, Images{After: row(50)})
			if !blocked {
				t.Fatalf("%s: the new anchor e shadowed T1's cover — a write at %s matching T1 was admitted", name, c.at)
			}
			m.ReleaseAll(1)
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m.ReleaseAll(3)
			m.ReleaseAll(4)
		}
	}
}

// New anchors in two gaps inherit two different covers. T1 covers (c, n]
// and T5 covers (n, t] and above; T3's install makes a new anchor low in
// T1's gap and one high in T5's, so each must keep the cover of its own
// gap: T1's for inserts below low, T5's for inserts below high. A single
// lookup must not serve both gaps, and the later gap's lookup must run
// above the copies already spliced — at 4 and 16 stripes high's stripe is
// bucketed before low's, so the keys reach densify in descending order.
func TestDensifyLooksUpEachGapsCover(t *testing.T) {
	field := ge(10)
	t1 := predicate.And{L: predicate.KeyRange{Lo: "a", Hi: "n"}, R: field}
	t5 := predicate.And{L: predicate.KeyRange{Lo: "n", Hi: "z"}, R: field}
	for _, shards := range []int{1, 4, 16} {
		m := NewManagerShards(shards)
		low, high := data.Key("e0"), data.Key("p0")
		if shards > 1 {
			low, high = "", ""
		pick:
			for i := 0; i < 10; i++ {
				for j := 0; j < 10; j++ {
					l, h := data.Key(fmt.Sprintf("e%d", i)), data.Key(fmt.Sprintf("p%d", j))
					if m.stripeIndex(h) < m.stripeIndex(l) {
						low, high = l, h
						break pick
					}
				}
			}
			if low == "" {
				t.Fatalf("shards=%d: no key pair with the high key on a lower stripe", shards)
			}
		}
		name := fmt.Sprintf("shards=%d low=%s high=%s", shards, low, high)
		// Present keys c, m, n, t. T5 scans [n, z); T1 scans [a, n), its
		// ceiling n.
		mustRange(t, m, 5, boundedSpec(t5, "n", "z", "", "n", "t"))
		mustRange(t, m, 1, boundedSpec(t1, "a", "n", "n", "c", "m"))
		// T3 scans [d, q) with a predicate no write below satisfies; its
		// snapshot holds the fresh keys low and high.
		mustRange(t, m, 3, boundedSpec(ge(1000), "d", "q", "t", low, high))
		var dones []<-chan error
		for _, w := range []struct {
			tx       TxID
			at, over data.Key
			owner    string
		}{{4, "d5", low, "T1"}, {6, "o5", high, "T5"}} {
			blocked, done := gapBlocks(t, m, w.tx, w.at, Images{After: row(50)})
			if !blocked {
				t.Errorf("%s: a write at %s matching %s was admitted — %s lost its gap's cover", name, w.at, w.owner, w.over)
			}
			dones = append(dones, done)
		}
		m.ReleaseAll(1)
		m.ReleaseAll(5)
		for _, done := range dones {
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// A fragment decides a grant only where its predicate can match, so a new
// anchor inherits no member of its cover whose key bounds start above it.
// Two scans over disjoint key ranges therefore keep exactly their own
// fragments, whichever installs first: the lower scan's anchors sit in the
// gap the upper scan's lowest anchor owns, and inherit nothing from it.
// LiveFragments, the gauge, counts what is held.
func TestDisjointScansInheritNothing(t *testing.T) {
	keys := func(prefix string) []data.Key {
		var out []data.Key
		for i := 0; i < 8; i++ {
			out = append(out, data.Key(fmt.Sprintf("%s%02d", prefix, i)))
		}
		return out
	}
	scan := func(lo, hi, ceiling data.Key, anchors []data.Key) RangeSpec {
		return boundedSpec(predicate.KeyRange{Lo: lo, Hi: hi}, lo, hi, ceiling, anchors...)
	}
	lower := scan("g1:", "g1;", "g2:00", keys("g1:"))
	upper := scan("g2:", "g2;", "", keys("g2:"))
	for _, shards := range []int{1, 4, 16} {
		m := NewManagerShards(shards)
		alone := func(tx TxID, spec RangeSpec) int64 {
			mustRange(t, m, tx, spec)
			n := m.Stats().LiveFragments
			m.ReleaseAll(tx)
			if left := m.Stats().LiveFragments; left != 0 {
				t.Fatalf("shards=%d: %d fragments live after ReleaseAll", shards, left)
			}
			return n
		}
		nLower, nUpper := alone(1, lower), alone(2, upper)
		if nLower != 9 || nUpper != 9 {
			t.Fatalf("shards=%d: alone the scans hold %d and %d fragments, want 9 each (8 anchors plus ceiling or supremum)", shards, nLower, nUpper)
		}
		for _, upperFirst := range []bool{true, false} {
			first, second := lower, upper
			if upperFirst {
				first, second = upper, lower
			}
			mustRange(t, m, 1, first)
			mustRange(t, m, 2, second)
			if got := m.Stats().LiveFragments; got != nLower+nUpper {
				t.Errorf("shards=%d upperFirst=%v: %d live fragments, want %d — the second install copied the first scan's fragments", shards, upperFirst, got, nLower+nUpper)
			}
			m.ReleaseAll(1)
			m.ReleaseAll(2)
		}
	}
}
