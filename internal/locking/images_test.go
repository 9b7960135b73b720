package locking

import (
	"fmt"
	"slices"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/predicate"
)

// waitEvent is one TxWaiting notification.
type waitEvent struct {
	tx lock.TxID
	on []lock.TxID
}

// waitObserver forwards the lock manager's TxWaiting events to a channel,
// so a test learns that a request queued without sleeping. The callback
// runs under a manager latch and must not block, so the buffer (16) holds
// more waits than a test here causes.
type waitObserver struct{ waits chan waitEvent }

func newWaitObserver() *waitObserver { return &waitObserver{waits: make(chan waitEvent, 16)} }

func (o *waitObserver) TxWaiting(tx lock.TxID, on []lock.TxID) {
	o.waits <- waitEvent{tx: tx, on: slices.Clone(on)}
}

func (o *waitObserver) TxGranted(lock.TxID) {}

// A write that queued behind another writer of the same row carries the
// row it overwrites as its lock's before-image, not the queued-behind
// writer's dirty value. T3 writes x=1006; T1 queues on x to write 1001;
// T3 aborts, restoring x=5, and T1's write goes through. T1's lock now
// covers a row with val < 1000 (its before-image, 5), so T4's SERIALIZABLE
// scan for val < 1000 must wait on T1: had it returned [y] at once, as it
// did when T1's lock kept the pre-wait image 1006, T1's abort would make
// T4's rescan return [x y] — a phantom inside one SERIALIZABLE
// transaction. Both phantom protocols.
func TestQueuedWriteCarriesGrantTimeBeforeImage(t *testing.T) {
	for _, phantom := range []Phantom{PhantomPredicate, PhantomKeyrange} {
		t.Run(phantom.String(), func(t *testing.T) {
			db := NewDB(WithPhantomProtection(phantom))
			obs := newWaitObserver()
			db.SetObserver(obs)
			loadScalars(db, map[string]int64{"x": 5, "y": 7})
			t1 := mustBegin(t, db, engine.Serializable)
			mustBegin(t, db, engine.Serializable) // T2 is not in the story
			t3 := mustBegin(t, db, engine.Serializable)
			t4 := mustBegin(t, db, engine.Serializable)

			if err := engine.PutVal(t3, "x", 1006); err != nil {
				t.Fatal(err)
			}
			put1 := make(chan error, 1)
			go func() { put1 <- engine.PutVal(t1, "x", 1001) }()
			if ev := <-obs.waits; ev.tx != lock.TxID(t1.ID()) || !slices.Equal(ev.on, []lock.TxID{lock.TxID(t3.ID())}) {
				t.Fatalf("TxWaiting(T%d on %v), want T1 on [T3]", ev.tx, ev.on)
			}
			if err := t3.Abort(); err != nil {
				t.Fatal(err)
			}
			if err := <-put1; err != nil {
				t.Fatal(err)
			}

			p := predicate.MustParse("val < 1000")
			scan := make(chan string, 1)
			go func() { scan <- selectKeys(t4, p) }()
			var first string
			select {
			case ev := <-obs.waits:
				if ev.tx != lock.TxID(t4.ID()) || !slices.Equal(ev.on, []lock.TxID{lock.TxID(t1.ID())}) {
					t.Fatalf("TxWaiting(T%d on %v), want T4 on [T1]", ev.tx, ev.on)
				}
				if err := t1.Abort(); err != nil {
					t.Fatal(err)
				}
				first = <-scan
			case first = <-scan:
				// The scan did not wait: finish the story to show what it
				// let through.
				if err := t1.Abort(); err != nil {
					t.Fatal(err)
				}
			}
			if again := selectKeys(t4, p); again != first || first != "[x y]" {
				t.Fatalf("T4's SERIALIZABLE scans returned %s, then %s after T1 aborted; want [x y] both times", first, again)
			}
			if err := t4.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// selectKeys runs tx.Select(p) and renders the returned keys, or the error.
func selectKeys(tx engine.Tx, p predicate.P) string {
	rows, err := tx.Select(p)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprint(data.Keys(rows))
}
