package lock_test

import (
	"fmt"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/lock"
	"isolevel/internal/predicate"
	"isolevel/internal/sv"
)

// rangeInstallAllocs is the steady-state allocation count of one
// AcquireRange + ReleaseAll over a bounded key range holding anchors
// existing keys, with anchors snapshotted through SnapshotInto exactly as
// the locking engine's scans (and the benchmark's lock probes) do. Rows
// outside the range sit on both sides so the anchor snapshot has to cut.
// contended adds a second transaction holding a scan of the rows just above
// the range for the whole measurement: every anchor of the measured
// install is then new inside that scan's gap, so the install runs densify
// against a resident cover, as a scan does with another scanner live.
func rangeInstallAllocs(t *testing.T, anchors int, contended bool) float64 {
	t.Helper()
	store := sv.NewStore()
	for i := 0; i < anchors; i++ {
		store.Load(data.Tuple{Key: data.Key(fmt.Sprintf("r:%05d", i)), Row: data.Scalar(int64(i))})
		store.Load(data.Tuple{Key: data.Key(fmt.Sprintf("s:%05d", i)), Row: data.Scalar(int64(i))})
	}
	store.Load(data.Tuple{Key: "a:below", Row: data.Scalar(0)}, data.Tuple{Key: "z:above", Row: data.Scalar(0)})
	spec := func(rng predicate.KeyRange) lock.RangeSpec {
		return lock.RangeSpec{Pred: rng, Lo: rng.Lo, Hi: rng.Hi, Bounded: true,
			SnapshotInto: func(r *data.KeyRuns) data.Key { return store.AppendRangeAnchors(r, rng.Lo, rng.Hi, true) }}
	}
	measured := spec(predicate.KeyRange{Lo: "r:", Hi: "r;"})
	lm := lock.NewManager()
	lm.SetRowPresent(store.Exists)
	if contended {
		if _, err := lm.AcquireRange(2, spec(predicate.KeyRange{Lo: "s:", Hi: "s;"})); err != nil {
			t.Fatal(err)
		}
		defer lm.ReleaseAll(2)
	}
	return testing.AllocsPerRun(100, func() {
		if _, err := lm.AcquireRange(1, measured); err != nil {
			t.Fatal(err)
		}
		lm.ReleaseAll(1)
	})
}

// A range install stages anchors as per-stripe key runs in reusable
// buffers, so its allocation count stops growing once every stripe has a
// run: the same at 512 anchors as at 32. A return to per-key staging
// fails the equality; the ceilings leave room for a later cut. With
// another scan's fragments resident above the range, densify's cover
// lookup and copy reuse scratch too: the contended install allocates no
// more than the idle one, at either size. The predicate-lock install gets
// a ceiling in the same style.
func TestRangeInstallAllocsIndependentOfRangeSize(t *testing.T) {
	at32 := rangeInstallAllocs(t, 32, false)
	if at32 > 25 {
		t.Errorf("AcquireRange+ReleaseAll over 32 anchors: %.0f allocs, want <= 25", at32)
	}
	if at512 := rangeInstallAllocs(t, 512, false); at512 != at32 {
		t.Errorf("AcquireRange+ReleaseAll: %.0f allocs over 512 anchors, %.0f over 32; want equal", at512, at32)
	}
	busy32 := rangeInstallAllocs(t, 32, true)
	if busy32 > at32 {
		t.Errorf("contended AcquireRange+ReleaseAll over 32 anchors: %.0f allocs, idle %.0f; want no more", busy32, at32)
	}
	if busy512 := rangeInstallAllocs(t, 512, true); busy512 != busy32 {
		t.Errorf("contended AcquireRange+ReleaseAll: %.0f allocs over 512 anchors, %.0f over 32; want equal", busy512, busy32)
	}

	lm := lock.NewManager()
	rng := predicate.KeyRange{Lo: "r:", Hi: "r;"}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := lm.AcquirePred(1, rng, lock.S); err != nil {
			t.Fatal(err)
		}
		lm.ReleaseAll(1)
	}); n > 6 {
		t.Errorf("AcquirePred+ReleaseAll: %.0f allocs, want <= 6", n)
	}
}

// A lock granted at once allocates nothing: the request stays on the
// stack, holders sit in a recycled slice, and lock-table entries, held-key
// sets and footprints come back from free lists. Only a request that
// queues allocates (itself and its ready channel). Every run is a fresh
// transaction, as in an engine, so the manager is first warmed with enough
// of them to have touched every per-transaction footprint slot.
func TestImmediateItemGrantsAllocateNothing(t *testing.T) {
	lm := lock.NewManager()
	im := lock.Images{Before: data.Scalar(1), After: data.Scalar(2)}
	var tx lock.TxID
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"AcquireItem(X)+ReleaseAll", func() {
			tx++
			if err := lm.AcquireItem(tx, "r:00001", lock.X, im); err != nil {
				t.Fatal(err)
			}
			lm.ReleaseAll(tx)
		}},
		{"AcquireItem(S)+AcquireItem(X)+ReleaseAll", func() {
			tx++
			if err := lm.AcquireItem(tx, "r:00002", lock.S, lock.Images{Before: im.Before}); err != nil {
				t.Fatal(err)
			}
			if err := lm.AcquireItem(tx, "r:00002", lock.X, im); err != nil {
				t.Fatal(err)
			}
			lm.ReleaseAll(tx)
		}},
		{"AcquireItem(X)+ReleaseItem", func() {
			tx++
			if err := lm.AcquireItem(tx, "r:00003", lock.X, im); err != nil {
				t.Fatal(err)
			}
			lm.ReleaseItem(tx, "r:00003")
			lm.ReleaseAll(tx)
		}},
	} {
		for i := 0; i < 256; i++ {
			c.run()
		}
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s: %.0f allocs, want 0", c.name, n)
		}
	}
}
