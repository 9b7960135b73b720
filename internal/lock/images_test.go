package lock

import (
	"slices"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// rowTable is a minimal row source for SetRowImage: the rows a test's
// transactions have written in place, undo included.
type rowTable struct {
	mu   sync.Mutex
	rows map[data.Key]data.Row
}

func (r *rowTable) get(k data.Key) data.Row {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows[k]
}

func (r *rowTable) put(k data.Key, row data.Row) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows[k] = row
}

// waitChan forwards TxWaiting to a buffered channel. The callback runs
// under a manager latch and must not block, so the test's buffer (8)
// holds more waits than it causes.
type waitChan chan waitEvent

type waitEvent struct {
	tx TxID
	on []TxID
}

func (c waitChan) TxWaiting(tx TxID, on []TxID) { c <- waitEvent{tx, slices.Clone(on)} }
func (c waitChan) TxGranted(TxID)               {}

// expectWait fails unless tx's request, whose outcome done reports,
// waits on exactly on before it returns.
func expectWait(t *testing.T, waits waitChan, done <-chan error, tx TxID, on ...TxID) {
	t.Helper()
	select {
	case ev := <-waits:
		if ev.tx != tx || !slices.Equal(ev.on, on) {
			t.Fatalf("TxWaiting(T%d on %v), want T%d on %v", ev.tx, ev.on, tx, on)
		}
	case err := <-done:
		t.Fatalf("T%d's request returned %v without waiting, want a wait on %v", tx, err, on)
	}
}

// With a row source, an exclusive request's before-image is the row at its
// grant, not the one its caller peeked before waiting. T3 holds x with
// 1006 written in place; T1 queues an Exclusive request on x whose caller
// passes that dirty 1006 as Before; T3 aborts, restoring x=5, and releases.
// T1's hold must cover 5, so T4's Shared predicate val < 1000 waits on T1
// — with the peeked image it was granted at once. An Exclusive
// re-acquire keeps the hold's first before-image, and an upgrade from
// Shared takes the row at the upgrade's grant over the one the read was
// requested with.
func TestExclusiveBeforeImageIsTheRowAtGrant(t *testing.T) {
	rows := &rowTable{rows: map[data.Key]data.Row{"x": row(5), "y": row(2000)}}
	m := NewManager()
	m.SetRowImage(rows.get)
	waits := make(waitChan, 8)
	m.SetObserver(waits)

	if err := m.AcquireItem(3, "x", X, Images{After: row(1006)}); err != nil {
		t.Fatal(err)
	}
	rows.put("x", row(1006))
	e1 := make(chan error, 1)
	go func() { e1 <- m.AcquireItem(1, "x", X, Images{Before: row(1006), After: row(1001)}) }()
	expectWait(t, waits, e1, 1, 3)
	rows.put("x", row(5)) // T3's undo, before its release
	m.ReleaseAll(3)
	if err := <-e1; err != nil {
		t.Fatal(err)
	}
	rows.put("x", row(1001))
	// A second write by T1 keeps the first before-image.
	if err := m.AcquireItem(1, "x", X, Images{Before: row(1001), After: row(1002)}); err != nil {
		t.Fatal(err)
	}

	e4 := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(4, predicate.MustParse("val < 1000"), S)
		e4 <- err
	}()
	expectWait(t, waits, e4, 4, 1)
	m.ReleaseAll(1)
	if err := <-e4; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(4)

	// T5 read y (2000) with a stale image that matches; its upgrade's
	// grant sees 2000, so T6's predicate is not held up by the read's
	// image.
	if err := m.AcquireItem(5, "y", S, Images{Before: row(10)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireItem(5, "y", X, Images{After: row(2001)}); err != nil {
		t.Fatal(err)
	}
	e6 := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(6, predicate.MustParse("val < 1000"), S)
		e6 <- err
	}()
	select {
	case ev := <-waits:
		t.Fatalf("T%d waits on %v: the upgraded hold kept the read's image", ev.tx, ev.on)
	case err := <-e6:
		if err != nil {
			t.Fatal(err)
		}
	}
}
