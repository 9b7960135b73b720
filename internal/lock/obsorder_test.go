package lock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"isolevel/internal/obs"
	"isolevel/internal/predicate"
)

// countingClock is a virtual clock whose reads can be counted without
// reading it.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() int64 { return c.reads.Add(1) }

// tailChecker is an Observer that, at every TxWaiting, reads the sink's
// flight recorder and reports whether its last event is tx's wait, and
// how many clock reads there had been. The schedule runner dispatches its
// next op as soon as it hears of a wait, so an event recorded or a clock
// read after TxWaiting races that op for the clock.
type tailChecker struct {
	sink  *obs.Sink
	clock *countingClock
	got   chan waitTail
}

type waitTail struct {
	problem string // "" when the tail is tx's wait
	reads   int64
}

func (c tailChecker) TxWaiting(tx TxID, on []TxID) {
	tail := c.sink.Flight.Tail(1)
	w := waitTail{reads: c.clock.reads.Load()}
	switch {
	case len(tail) == 0:
		w.problem = "empty flight recorder"
	case tail[0].Kind != obs.EvWait || tail[0].Tx != int(tx):
		w.problem = fmt.Sprintf("tail %q at T%d's TxWaiting", tail[0].String(), tx)
	}
	c.got <- w
}

func (tailChecker) TxGranted(TxID) {}

// The wait event is in the flight recorder before the observer hears of
// the wait, and the waiting request reads the clock no more once it has
// notified, on every enqueue path: a striped item wait, a predicate wait,
// a gated item wait (taken while that predicate request is queued) and a
// key-range wait.
func TestWaitEventRecordedBeforeObserverNotified(t *testing.T) {
	m := NewManagerShards(4)
	clock := &countingClock{}
	sink := obs.NewSink(clock).WithFlight(64)
	m.SetObs(sink)
	c := tailChecker{sink: sink, clock: clock, got: make(chan waitTail, 8)}
	m.SetObserver(c)

	expect := func(what string, done <-chan error) {
		t.Helper()
		select {
		case w := <-c.got:
			if w.problem != "" {
				t.Fatalf("%s: %s", what, w.problem)
			}
			// Nothing else runs while the request waits: a clock read
			// now is the waiting path's own, after its notification.
			time.Sleep(20 * time.Millisecond)
			if n := clock.reads.Load(); n != w.reads {
				t.Fatalf("%s: %d clock reads after TxWaiting", what, n-w.reads)
			}
		case err := <-done:
			t.Fatalf("%s: returned %v without waiting", what, err)
		}
	}
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// T1 writes x and y, both rows matching val >= 10.
	mustOK(m.AcquireItem(1, "x", X, Images{After: row(50)}))
	mustOK(m.AcquireItem(1, "y", X, Images{After: row(60)}))

	striped := make(chan error, 1)
	go func() { striped <- m.AcquireItem(2, "x", S, Images{}) }()
	expect("striped item wait", striped)

	pred := make(chan error, 1)
	go func() {
		_, err := m.AcquirePred(3, predicate.MustParse("val >= 10"), S)
		pred <- err
	}()
	expect("predicate wait", pred)

	gated := make(chan error, 1)
	go func() { gated <- m.AcquireItem(4, "y", S, Images{}) }()
	expect("gated item wait", gated)

	m.ReleaseAll(1)
	for _, done := range []chan error{striped, pred, gated} {
		mustOK(<-done)
	}
	for _, tx := range []TxID{2, 3, 4} {
		m.ReleaseAll(tx)
	}

	mustOK(m.AcquireItem(5, "y", X, Images{After: row(70)}))
	ranged := make(chan error, 1)
	go func() {
		_, err := m.AcquireRange(6, rangeSpec(ge(10), "x", "y"))
		ranged <- err
	}()
	expect("range wait", ranged)
	m.ReleaseAll(5)
	mustOK(<-ranged)
	m.ReleaseAll(6)
}
