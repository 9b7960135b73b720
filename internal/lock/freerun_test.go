package lock

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// dumpWaitsFor renders the waits-for graph as "tx:[on...]" in ascending
// tx order, read under the graph's latch (stall dumps).
func dumpWaitsFor(g *WaitsFor) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	txs := make([]TxID, 0, len(g.out))
	for tx := range g.out {
		txs = append(txs, tx)
	}
	slices.Sort(txs)
	var b strings.Builder
	for _, tx := range txs {
		fmt.Fprintf(&b, "%d:%v ", tx, g.out[tx])
	}
	return b.String()
}

// runFreeRunning drives m from four workers, each running txnsPerWorker
// transactions of four op calls followed by ReleaseAll and retrying
// deadlock victims, with a watchdog that fails the test as soon as no
// transaction finishes for 500 ms and prints the waits-for graph, so a
// stall is a named failure, not a test timeout. It returns the manager's
// stats once every worker is done.
func runFreeRunning(t *testing.T, m *Manager, txnsPerWorker int, op func(r *rand.Rand, tx TxID) error) Stats {
	t.Helper()
	const workers = 4
	var nextTx atomic.Int64
	var finished atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < txnsPerWorker; i++ {
				for {
					tx := TxID(nextTx.Add(1))
					var err error
					for j := 0; j < 4 && err == nil; j++ {
						err = op(r, tx)
						// Yield so the workers overlap even at
						// GOMAXPROCS=1, where they would otherwise run
						// back to back and never conflict.
						runtime.Gosched()
					}
					m.ReleaseAll(tx)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrDeadlock) {
						t.Errorf("T%d: %v", tx, err)
						return
					}
				}
				finished.Add(1)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case <-done:
			return m.Stats()
		case <-tick.C:
			n := finished.Load()
			if n == last {
				t.Fatalf("stalled after %d/%d transactions: no transaction finished for 500ms\nwaits-for: %s\nqueued requests: %d",
					n, workers*txnsPerWorker, dumpWaitsFor(m.wf), m.QueueLen())
			}
			last = n
		}
	}
}

// freeRunKeys returns the 25 keys k:00..k:24 the free-running tests draw
// from: 24 to lock and a ceiling for ranges ending at the last.
func freeRunKeys() []data.Key {
	keys := make([]data.Key, 25)
	for i := range keys {
		keys[i] = data.Key(fmt.Sprintf("k:%02d", i))
	}
	return keys
}

// Free-running key-range traffic must never hang: every wait is either
// granted or refused as a deadlock victim. Four workers run transactions
// of four random operations over 24 keys — a Shared item read, an
// Exclusive item write whose row image lies in every range covering its
// key, or a six-key AcquireRange with static anchors — then ReleaseAll,
// retrying deadlock victims. Unlike the lockstep fuzzer, the operations
// race on real cores, so a range request's conflict read interleaves with
// item grants and striped releases; a conflict set read before the
// request is queued misses a writer granted mid-read (an unchecked
// 2-cycle later closed by an edge refresh) or a holder that releases
// without draining the range queue (a lost wakeup). The run is bounded by
// transaction count (10,000: a fraction of a second, a few seconds under
// -race), so repeat it with -count to hunt a rare interleaving. A row
// source that answers every key with the Before image keeps the conflict
// sets as written while exclusive requests read their before-images under
// the stripe latches, as the locking engine's do.
func TestKeyrangeFreeRunningNeverStalls(t *testing.T) {
	const nkeys, span = 24, 6
	m := NewManager()
	keys := freeRunKeys()
	im := Images{Before: data.Scalar(1), After: data.Scalar(2)}
	m.SetRowImage(func(data.Key) data.Row { return im.Before })
	st := runFreeRunning(t, m, 2500, func(r *rand.Rand, tx TxID) error {
		k := keys[r.Intn(nkeys)]
		switch r.Intn(3) {
		case 0:
			return m.AcquireItem(tx, k, S, Images{Before: im.Before})
		case 1:
			return m.AcquireItem(tx, k, X, im)
		}
		lo := r.Intn(nkeys - span + 1)
		rng := predicate.KeyRange{Lo: keys[lo], Hi: keys[lo+span]}
		_, err := m.AcquireRange(tx, RangeSpec{Pred: rng, Lo: rng.Lo, Hi: rng.Hi, Bounded: true,
			Anchors: keys[lo : lo+span], Ceiling: keys[lo+span]})
		return err
	})
	if st.RangeGrants == 0 || st.Deadlocks == 0 {
		t.Fatalf("mix starved: %d range grants, %d deadlocks", st.RangeGrants, st.Deadlocks)
	}
}

// The predicate protocol's twin of the stress above: Shared and Exclusive
// item operations with row images, and Shared or Exclusive predicate
// locks over six-key ranges. Item requests run on the striped path while
// predicates are only held and take the exclusive gate while one is
// queued, so the free-running mix crosses that switch in both directions
// on every core: an item waiter enqueued beside a held predicate must
// still be granted by the predicate holder's ReleaseAll, and a predicate
// request queued behind striped item holders by their releases.
func TestPredicateFreeRunningNeverStalls(t *testing.T) {
	const nkeys, span = 24, 6
	m := NewManager()
	keys := freeRunKeys()
	im := Images{Before: data.Scalar(1), After: data.Scalar(2)}
	m.SetRowImage(func(data.Key) data.Row { return im.Before })
	st := runFreeRunning(t, m, 2500, func(r *rand.Rand, tx TxID) error {
		k := keys[r.Intn(nkeys)]
		switch r.Intn(4) {
		case 0:
			return m.AcquireItem(tx, k, S, Images{Before: im.Before})
		case 1:
			return m.AcquireItem(tx, k, X, im)
		}
		lo := r.Intn(nkeys - span + 1)
		mode := S
		if r.Intn(2) == 0 {
			mode = X
		}
		_, err := m.AcquirePred(tx, predicate.KeyRange{Lo: keys[lo], Hi: keys[lo+span]}, mode)
		return err
	})
	if st.PredGrants == 0 || st.PredWaits == 0 || st.Deadlocks == 0 {
		t.Fatalf("mix starved: %d predicate grants, %d predicate waits, %d deadlocks", st.PredGrants, st.PredWaits, st.Deadlocks)
	}
}
