package lock

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

func row(v int64) data.Row { return data.Scalar(v) }

func TestSharedLocksCompatible(t *testing.T) {
	m := NewManager()
	if err := m.AcquireItem(1, "x", S, Images{Before: row(1)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.AcquireItem(2, "x", S, Images{Before: row(1)}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("S+S blocked")
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := NewManager()
	if err := m.AcquireItem(1, "x", X, Images{After: row(2)}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.AcquireItem(2, "x", S, Images{}) }()
	select {
	case <-got:
		t.Fatal("S acquired while X held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("S never granted after release")
	}
}

func TestReacquireSameModeRefCounted(t *testing.T) {
	m := NewManager()
	if err := m.AcquireItem(1, "x", S, Images{}); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireItem(1, "x", S, Images{}); err != nil {
		t.Fatal(err)
	}
	m.ReleaseItem(1, "x")
	if _, held := m.Holding(1, "x"); !held {
		t.Fatal("lock dropped after single release of double acquire")
	}
	m.ReleaseItem(1, "x")
	if _, held := m.Holding(1, "x"); held {
		t.Fatal("lock survived matching releases")
	}
}

func TestXCoversS(t *testing.T) {
	m := NewManager()
	if err := m.AcquireItem(1, "x", X, Images{}); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireItem(1, "x", S, Images{}); err != nil {
		t.Fatal(err) // own X covers S, no self-deadlock
	}
	if mode, held := m.Holding(1, "x"); !held || mode != X {
		t.Fatal("mode should remain X")
	}
}

func TestUpgradeWaitsForOtherReader(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "x", S, Images{})
	_ = m.AcquireItem(2, "x", S, Images{})
	done := make(chan error, 1)
	go func() { done <- m.AcquireItem(1, "x", X, Images{After: row(9)}) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while other S held")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holding(1, "x"); mode != X {
		t.Fatal("upgrade did not take effect")
	}
}

// The classic upgrade deadlock: two readers both upgrade. The second
// upgrader must get ErrDeadlock immediately.
func TestUpgradeDeadlockDetected(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "x", S, Images{})
	_ = m.AcquireItem(2, "x", S, Images{})
	first := make(chan error, 1)
	go func() { first <- m.AcquireItem(1, "x", X, Images{}) }()
	time.Sleep(20 * time.Millisecond) // let T1's upgrade enqueue
	err := m.AcquireItem(2, "x", X, Images{})
	if err != ErrDeadlock {
		t.Fatalf("second upgrader got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2) // victim aborts
	if err := <-first; err != nil {
		t.Fatalf("survivor's upgrade failed: %v", err)
	}
}

func TestTwoItemDeadlockDetected(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "x", X, Images{})
	_ = m.AcquireItem(2, "y", X, Images{})
	first := make(chan error, 1)
	go func() { first <- m.AcquireItem(1, "y", X, Images{}) }() // T1 waits on T2
	time.Sleep(20 * time.Millisecond)
	err := m.AcquireItem(2, "x", X, Images{}) // closes the cycle
	if err != ErrDeadlock {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// Three-party deadlock through a chain of waits.
func TestThreePartyDeadlock(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "a", X, Images{})
	_ = m.AcquireItem(2, "b", X, Images{})
	_ = m.AcquireItem(3, "c", X, Images{})
	e1 := make(chan error, 1)
	e2 := make(chan error, 1)
	go func() { e1 <- m.AcquireItem(1, "b", X, Images{}) }()
	time.Sleep(20 * time.Millisecond)
	go func() { e2 <- m.AcquireItem(2, "c", X, Images{}) }()
	time.Sleep(20 * time.Millisecond)
	if err := m.AcquireItem(3, "a", X, Images{}); err != ErrDeadlock {
		t.Fatalf("got %v, want ErrDeadlock", err)
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

func TestPredicateBlocksMatchingWrite(t *testing.T) {
	m := NewManager()
	p := predicate.MustParse("active == 1")
	h, err := m.AcquirePred(1, p, S)
	if err != nil {
		t.Fatal(err)
	}
	// Insert of a matching row (phantom) must block.
	done := make(chan error, 1)
	go func() {
		done <- m.AcquireItem(2, "emp:9", X, Images{After: data.NewRow(map[string]int64{"active": 1})})
	}()
	select {
	case <-done:
		t.Fatal("phantom insert not blocked by predicate lock")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleasePred(1, h)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPredicateIgnoresNonMatchingWrite(t *testing.T) {
	m := NewManager()
	p := predicate.MustParse("active == 1")
	if _, err := m.AcquirePred(1, p, S); err != nil {
		t.Fatal(err)
	}
	// Insert of a non-matching row sails through.
	if err := m.AcquireItem(2, "emp:9", X, Images{After: data.NewRow(map[string]int64{"active": 0})}); err != nil {
		t.Fatal(err)
	}
}

func TestPredicateConflictsWithHeldWrite(t *testing.T) {
	m := NewManager()
	// T1 holds X with a matching after-image; T2's predicate read must wait.
	_ = m.AcquireItem(1, "emp:9", X, Images{After: data.NewRow(map[string]int64{"active": 1})})
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(2, predicate.MustParse("active == 1"), S)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("predicate read not blocked by matching write lock")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPredicateVsPredicateConservative(t *testing.T) {
	m := NewManager()
	if _, err := m.AcquirePred(1, predicate.MustParse("a == 1"), S); err != nil {
		t.Fatal(err)
	}
	// X predicate on a non-provably-disjoint predicate blocks.
	done := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(2, predicate.MustParse("b == 2"), X)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("conservative predicate-predicate conflict missed")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	// Provably disjoint predicates do not conflict.
	if _, err := m.AcquirePred(3, predicate.MustParse("a == 1"), S); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePred(4, predicate.MustParse("a == 2"), X); err != nil {
		t.Fatal(err)
	}
}

func TestSamePredSharedLocksCompatible(t *testing.T) {
	m := NewManager()
	p := predicate.MustParse("a == 1")
	if _, err := m.AcquirePred(1, p, S); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePred(2, p, S); err != nil {
		t.Fatal(err)
	}
}

func TestReadImageConflictsWithPredX(t *testing.T) {
	m := NewManager()
	// T1 holds a predicate WRITE lock (e.g. UPDATE WHERE active==1).
	if _, err := m.AcquirePred(1, predicate.MustParse("active == 1"), X); err != nil {
		t.Fatal(err)
	}
	// T2 reading a matching row must wait (read image conflicts).
	done := make(chan error, 1)
	go func() {
		done <- m.AcquireItem(2, "emp:1", S, Images{Before: data.NewRow(map[string]int64{"active": 1})})
	}()
	select {
	case <-done:
		t.Fatal("read of covered row not blocked by predicate X lock")
	case <-time.After(50 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

type recordingObserver struct {
	mu      sync.Mutex
	waits   []TxID
	waitOn  [][]TxID // waitOn[i] is what waits[i] waited on
	granted []TxID
}

func (o *recordingObserver) TxWaiting(tx TxID, on []TxID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.waits = append(o.waits, tx)
	o.waitOn = append(o.waitOn, slices.Clone(on))
}

func (o *recordingObserver) TxGranted(tx TxID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.granted = append(o.granted, tx)
}

func TestObserverSeesWaitAndGrant(t *testing.T) {
	m := NewManager()
	o := &recordingObserver{}
	m.SetObserver(o)
	_ = m.AcquireItem(1, "x", X, Images{})
	done := make(chan error, 1)
	go func() { done <- m.AcquireItem(2, "x", X, Images{}) }()
	deadline := time.Now().Add(time.Second)
	for {
		o.mu.Lock()
		n := len(o.waits)
		o.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("observer never saw the wait")
		}
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.granted) != 1 || o.granted[0] != 2 {
		t.Fatalf("granted = %v", o.granted)
	}
	if o.waits[0] != 2 {
		t.Fatalf("waits = %v", o.waits)
	}
}

func TestReleaseAllCancelsQueuedRequests(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "x", X, Images{})
	done := make(chan error, 1)
	go func() { done <- m.AcquireItem(2, "x", X, Images{}) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(2)
	if err := <-done; err == nil {
		t.Fatal("cancelled request returned nil")
	}
	// Lock still held by T1.
	if _, held := m.Holding(1, "x"); !held {
		t.Fatal("T1 lost its lock")
	}
}

func TestStatsCount(t *testing.T) {
	m := NewManager()
	_ = m.AcquireItem(1, "x", X, Images{})
	go func() {
		_ = m.AcquireItem(2, "x", S, Images{})
	}()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	deadline := time.Now().Add(time.Second)
	for m.QueueLen() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := m.Stats()
	if st.Grants < 2 || st.Waits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Mutual exclusion invariant under concurrent hammering: a critical section
// guarded by an X lock is never entered by two goroutines at once.
func TestMutualExclusionStress(t *testing.T) {
	m := NewManager()
	var inside int32
	var violations int32
	var wg sync.WaitGroup
	for tx := 1; tx <= 8; tx++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := m.AcquireItem(tx, "hot", X, Images{}); err != nil {
					continue // deadlock impossible here, but be safe
				}
				if atomic.AddInt32(&inside, 1) != 1 {
					atomic.AddInt32(&violations, 1)
				}
				atomic.AddInt32(&inside, -1)
				m.ReleaseItem(tx, "hot")
			}
		}(TxID(tx))
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mutual exclusion violations", violations)
	}
}

// Random lock/unlock stress with S and X modes across several keys; checks
// the invariant that X excludes everything and S excludes X.
func TestModeInvariantStress(t *testing.T) {
	m := NewManager()
	keys := []data.Key{"a", "b", "c"}
	type state struct {
		mu      sync.Mutex
		readers map[data.Key]int
		writers map[data.Key]int
	}
	st := &state{readers: map[data.Key]int{}, writers: map[data.Key]int{}}
	var violations int32
	var wg sync.WaitGroup
	for tx := 1; tx <= 6; tx++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(tx)))
			for i := 0; i < 150; i++ {
				k := keys[r.Intn(len(keys))]
				if r.Intn(2) == 0 {
					if err := m.AcquireItem(tx, k, S, Images{}); err != nil {
						continue
					}
					st.mu.Lock()
					if st.writers[k] > 0 {
						atomic.AddInt32(&violations, 1)
					}
					st.readers[k]++
					st.mu.Unlock()
					st.mu.Lock()
					st.readers[k]--
					st.mu.Unlock()
					m.ReleaseItem(tx, k)
				} else {
					if err := m.AcquireItem(tx, k, X, Images{}); err != nil {
						continue
					}
					st.mu.Lock()
					if st.writers[k] > 0 || st.readers[k] > 0 {
						atomic.AddInt32(&violations, 1)
					}
					st.writers[k]++
					st.mu.Unlock()
					st.mu.Lock()
					st.writers[k]--
					st.mu.Unlock()
					m.ReleaseItem(tx, k)
				}
			}
		}(TxID(tx))
	}
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d mode invariant violations", violations)
	}
}

// Deadlock-freedom of the detector: with random two-key transactions,
// every acquire eventually returns (granted or ErrDeadlock); the test
// itself finishing is the assertion.
func TestNoUndetectedDeadlockStress(t *testing.T) {
	m := NewManager()
	keys := []data.Key{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for tx := 1; tx <= 6; tx++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(tx) * 77))
			for i := 0; i < 100; i++ {
				k1 := keys[r.Intn(len(keys))]
				k2 := keys[r.Intn(len(keys))]
				if err := m.AcquireItem(tx, k1, X, Images{}); err != nil {
					continue
				}
				if k2 != k1 {
					if err := m.AcquireItem(tx, k2, X, Images{}); err != nil {
						m.ReleaseAll(tx) // victim: drop everything
						continue
					}
				}
				m.ReleaseAll(tx)
			}
		}(TxID(tx))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung: undetected deadlock")
	}
}

func TestModeString(t *testing.T) {
	if S.String() != "S" || X.String() != "X" {
		t.Fatal("mode strings")
	}
}
