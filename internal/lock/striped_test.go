package lock

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// keysOnDistinctStripes returns n keys that all hash to different stripes
// of m (the stripe seed is random per manager, so tests probe instead of
// hard-coding key names).
func keysOnDistinctStripes(t *testing.T, m *Manager, n int) []data.Key {
	t.Helper()
	if n > m.ShardCount() {
		t.Fatalf("cannot place %d keys on %d stripes", n, m.ShardCount())
	}
	used := map[int]bool{}
	var out []data.Key
	for i := 0; len(out) < n && i < 10000; i++ {
		k := data.Key(fmt.Sprintf("probe:%d", i))
		if s := m.stripeIndex(k); !used[s] {
			used[s] = true
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d distinct-stripe keys", len(out), n)
	}
	return out
}

// Concurrent disjoint-key grants must spread across stripes: the
// per-stripe counters prove the requests did not funnel through one lock
// table. Run with -race this also hammers the shared-gate item path.
func TestDisjointKeyGrantsSpreadAcrossStripes(t *testing.T) {
	m := NewManagerShards(8)
	keys := keysOnDistinctStripes(t, m, 4)
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(tx TxID, key data.Key) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := m.AcquireItem(tx, key, X, Images{}); err != nil {
					t.Errorf("T%d: %v", tx, err)
					return
				}
				m.ReleaseItem(tx, key)
			}
		}(TxID(i+1), key)
	}
	wg.Wait()
	st := m.Stats()
	if st.Grants != int64(len(keys)*200) {
		t.Fatalf("grants = %d, want %d", st.Grants, len(keys)*200)
	}
	busy := 0
	for _, ss := range st.PerStripe {
		if ss.Grants > 0 {
			busy++
		}
		if ss.Waits != 0 {
			t.Fatalf("disjoint keys should never wait, stripe stats = %+v", st.PerStripe)
		}
	}
	if busy != len(keys) {
		t.Fatalf("grants landed on %d stripes, want %d (per-stripe: %+v)", busy, len(keys), st.PerStripe)
	}
}

// A predicate lock must conflict with matching item writes in every
// stripe, not just one.
func TestPredicateConflictSpansStripes(t *testing.T) {
	m := NewManagerShards(8)
	keys := keysOnDistinctStripes(t, m, 3)
	p := predicate.MustParse("active == 1")
	h, err := m.AcquirePred(1, p, S)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, len(keys))
	for i, key := range keys {
		go func(tx TxID, key data.Key) {
			done <- m.AcquireItem(tx, key, X, Images{After: data.NewRow(map[string]int64{"active": 1})})
		}(TxID(i+2), key)
	}
	select {
	case err := <-done:
		t.Fatalf("matching insert crossed the predicate lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleasePred(1, h)
	for range keys {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("insert never granted after predicate release")
		}
	}
	st := m.Stats()
	if st.PredGrants != 1 || st.Waits != int64(len(keys)) {
		t.Fatalf("stats = %+v", st)
	}
}

// A held predicate lock is a fixed fact an item request checks under its
// stripe latch; only a queued predicate request needs the exclusive gate.
// While T1 holds a Shared predicate and nothing is queued, T2's item
// acquires and releases on four stripes never take the gate, and T2's
// Exclusive write whose before-image matches still waits on T1 with the
// waits-for edge. Once T3's Exclusive predicate queues, T4's item acquire
// takes the gate. T1's ReleaseAll then grants T2 and T3 in arrival order.
func TestHeldPredicateLeavesItemPathStriped(t *testing.T) {
	m := NewManagerShards(8)
	o := &recordingObserver{}
	m.SetObserver(o)
	keys := keysOnDistinctStripes(t, m, 4)
	emp := func(active, dept int64) data.Row {
		return data.NewRow(map[string]int64{"active": active, "dept": dept})
	}
	if _, err := m.AcquirePred(1, predicate.MustParse("active == 1"), S); err != nil {
		t.Fatal(err)
	}
	gate := m.Stats().GateAcquires
	for _, k := range keys {
		if err := m.AcquireItem(2, k, S, Images{Before: emp(1, 3)}); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireItem(2, k, X, Images{Before: emp(0, 3), After: emp(0, 4)}); err != nil {
			t.Fatal(err)
		}
		m.ReleaseItem(2, k)
		m.ReleaseItem(2, k)
	}
	if got := m.Stats().GateAcquires; got != gate {
		t.Fatalf("item traffic under a held predicate took the gate %d times, want 0", got-gate)
	}

	e2 := make(chan error, 1)
	go func() { e2 <- m.AcquireItem(2, keys[0], X, Images{Before: emp(1, 3), After: emp(0, 3)}) }()
	waitForQueue(t, m, 1)
	o.mu.Lock()
	waits, on := slices.Clone(o.waits), slices.Clone(o.waitOn)
	o.mu.Unlock()
	if !slices.Equal(waits, []TxID{2}) || !slices.Equal(on[0], []TxID{1}) {
		t.Fatalf("TxWaiting = %v on %v, want T2 on [1]", waits, on)
	}
	if got := dumpWaitsFor(m.wf); got != "2:[1] " {
		t.Fatalf("waits-for = %q, want T2 -> T1", got)
	}
	if got := m.Stats().GateAcquires; got != gate {
		t.Fatalf("a wait on a held predicate took the gate %d times, want 0", got-gate)
	}

	e3 := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(3, predicate.MustParse("dept == 7"), X)
		e3 <- err
	}()
	waitForQueue(t, m, 2)
	gate = m.Stats().GateAcquires
	if err := m.AcquireItem(4, keys[3], S, Images{Before: emp(0, 3)}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().GateAcquires; got != gate+1 {
		t.Fatalf("item acquire beside a queued predicate took the gate %d times, want 1", got-gate)
	}

	m.ReleaseAll(1)
	for _, e := range []chan error{e2, e3} {
		if err := <-e; err != nil {
			t.Fatal(err)
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if !slices.Equal(o.granted, []TxID{2, 3}) {
		t.Fatalf("granted = %v, want [2 3]: T1's release grants in arrival order", o.granted)
	}
}

// A transaction that holds no predicate releases on the striped path even
// while another transaction holds one: T2's item-only ReleaseAll beside
// T1's held predicate takes no exclusive gate and still grants T3's item
// waiter. T3's Exclusive request waits on T2's key, not on T1's predicate,
// which its images do not satisfy; the predicate holder's own ReleaseAll
// still takes the gate.
func TestItemOnlyReleaseAllBesideHeldPredicateStaysStriped(t *testing.T) {
	m := NewManagerShards(8)
	o := &recordingObserver{}
	m.SetObserver(o)
	keys := keysOnDistinctStripes(t, m, 2)
	if _, err := m.AcquirePred(1, predicate.MustParse("val < 10"), S); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := m.AcquireItem(2, k, X, Images{Before: row(50), After: row(60)}); err != nil {
			t.Fatal(err)
		}
	}
	e3 := make(chan error, 1)
	go func() { e3 <- m.AcquireItem(3, keys[0], X, Images{Before: row(60), After: row(70)}) }()
	waitForQueue(t, m, 1)
	o.mu.Lock()
	on := slices.Clone(o.waitOn)
	o.mu.Unlock()
	if len(on) != 1 || !slices.Equal(on[0], []TxID{2}) {
		t.Fatalf("TxWaiting on = %v, want T3 on [2]", on)
	}
	gate := m.Stats().GateAcquires
	m.ReleaseAll(2)
	select {
	case err := <-e3:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("T2's striped ReleaseAll never woke T3's item waiter")
	}
	if got := m.Stats().GateAcquires; got != gate {
		t.Fatalf("an item-only ReleaseAll beside a held predicate took the gate %d times, want 0", got-gate)
	}
	if mode, ok := m.Holding(3, keys[0]); !ok || mode != X {
		t.Fatalf("T3 holds %v, %v after the grant", mode, ok)
	}
	m.ReleaseAll(3)
	m.ReleaseAll(1)
	if got := m.Stats().GateAcquires; got != gate+1 {
		t.Fatalf("the predicate holder's ReleaseAll took the gate %d times, want 1", got-gate)
	}
}

// A deadlock whose cycle spans stripes must still be detected, with the
// requester that closes the cycle as the victim.
func TestMultiStripeDeadlockRequesterVictim(t *testing.T) {
	m := NewManagerShards(8)
	keys := keysOnDistinctStripes(t, m, 3)
	for i, key := range keys {
		if err := m.AcquireItem(TxID(i+1), key, X, Images{}); err != nil {
			t.Fatal(err)
		}
	}
	// T1 waits on T2's key, T2 on T3's key: a chain across three stripes.
	e1 := make(chan error, 1)
	e2 := make(chan error, 1)
	go func() { e1 <- m.AcquireItem(1, keys[1], X, Images{}) }()
	waitForQueue(t, m, 1)
	go func() { e2 <- m.AcquireItem(2, keys[2], X, Images{}) }()
	waitForQueue(t, m, 2)
	// T3 closing the cycle back to T1's key is the victim, immediately.
	if err := m.AcquireItem(3, keys[0], X, Images{}); err != ErrDeadlock {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	if got := m.Stats().Deadlocks; got != 1 {
		t.Fatalf("deadlocks = %d, want 1", got)
	}
	m.ReleaseAll(3)
	if err := <-e2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-e1; err != nil {
		t.Fatal(err)
	}
}

func waitForQueue(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for m.QueueLen() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// The full conflict matrix must behave identically at every stripe count,
// including shards=1 (the old single-latch manager).
func TestShardSweepBehaviorParity(t *testing.T) {
	for _, shards := range []int{1, 2, 8, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := NewManagerShards(shards)
			if got := m.ShardCount(); got != max(1, shards) {
				t.Fatalf("ShardCount = %d", got)
			}
			// S+S compatible; X blocks; upgrade deadlock detected.
			if err := m.AcquireItem(1, "x", S, Images{}); err != nil {
				t.Fatal(err)
			}
			if err := m.AcquireItem(2, "x", S, Images{}); err != nil {
				t.Fatal(err)
			}
			first := make(chan error, 1)
			go func() { first <- m.AcquireItem(1, "x", X, Images{}) }()
			waitForQueue(t, m, 1)
			if err := m.AcquireItem(2, "x", X, Images{}); err != ErrDeadlock {
				t.Fatalf("second upgrader got %v, want ErrDeadlock", err)
			}
			m.ReleaseAll(2)
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			if mode, _ := m.Holding(1, "x"); mode != X {
				t.Fatal("upgrade did not take effect")
			}
			st := m.Stats()
			// One admitted upgrade (the survivor); the victim's upgrade
			// request was refused, not admitted.
			if st.Upgrades != 1 || st.Deadlocks != 1 {
				t.Fatalf("stats = %+v", st)
			}
			m.ReleaseAll(1)
			// Predicate-vs-item conflict still caught at this stripe count.
			h, err := m.AcquirePred(1, predicate.MustParse("a == 1"), S)
			if err != nil {
				t.Fatal(err)
			}
			blocked := make(chan error, 1)
			go func() {
				blocked <- m.AcquireItem(2, "phantom", X, Images{After: data.NewRow(map[string]int64{"a": 1})})
			}()
			select {
			case err := <-blocked:
				t.Fatalf("phantom insert not blocked: %v", err)
			case <-time.After(50 * time.Millisecond):
			}
			m.ReleasePred(1, h)
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Mixed predicate and item traffic under -race across stripes: writers
// hammer disjoint keys while a scanner repeatedly takes and drops a
// predicate lock that covers half of them. Every acquire must return and
// every conflict window must stay consistent (no torn grants).
func TestPredicateVsItemStress(t *testing.T) {
	m := NewManagerShards(8)
	p := predicate.MustParse("active == 1")
	stop := make(chan struct{})
	scannerDone := make(chan struct{})
	go func() {
		defer close(scannerDone)
		tx := TxID(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h, err := m.AcquirePred(tx, p, S)
			if err != nil {
				t.Errorf("pred: %v", err)
				return
			}
			m.ReleasePred(tx, h)
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(tx TxID) {
			defer writers.Done()
			key := data.Key(fmt.Sprintf("stress:%d", tx))
			active := int64(tx % 2)
			for i := 0; i < 300; i++ {
				if err := m.AcquireItem(tx, key, X, Images{After: data.NewRow(map[string]int64{"active": active})}); err != nil {
					t.Errorf("T%d: %v", tx, err)
					return
				}
				m.ReleaseItem(tx, key)
			}
		}(TxID(w + 1))
	}
	writersDone := make(chan struct{})
	go func() { writers.Wait(); close(writersDone) }()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stress hung: lost wakeup or undetected deadlock")
	}
	close(stop)
	select {
	case <-scannerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("scanner hung")
	}
}

// WaitsFor unit coverage: atomic check-and-add, refresh, removal.
func TestWaitsForGraph(t *testing.T) {
	g := NewWaitsFor()
	if !g.AddWaiter(1, []TxID{2}) {
		t.Fatal("first edge refused")
	}
	if !g.AddWaiter(2, []TxID{3}) {
		t.Fatal("chain edge refused")
	}
	if g.AddWaiter(3, []TxID{1}) {
		t.Fatal("cycle not refused")
	}
	if g.Waiting(3) {
		t.Fatal("refused waiter recorded")
	}
	// After T2 is granted, the same request no longer closes a cycle.
	g.Remove(2)
	if !g.AddWaiter(3, []TxID{1}) {
		t.Fatal("edge refused after cycle broken")
	}
	g.Refresh(3, nil)
	if g.Waiting(3) {
		t.Fatal("empty refresh should clear the node")
	}
}
