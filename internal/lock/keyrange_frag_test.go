package lock

// Tests for the fragment-storage internals layered on the key-range
// protocol: the dead-anchor fragment GC and the above-range stale-anchor
// shadowing rule the coalesced install has to honor.

import (
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
