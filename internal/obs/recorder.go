package obs

import (
	"fmt"
	"strings"
	"sync"
)

// EventKind classifies flight-recorder events. The vocabulary is the
// paper's lock-protocol lifecycle: a transaction begins at a level,
// waits for and is granted item/predicate/range/gap locks, upgrades
// read locks to write locks, may be chosen as a deadlock victim, and
// finally commits or aborts.
type EventKind uint8

const (
	EvBegin    EventKind = iota // tx begins; Level carries the isolation level code
	EvWait                      // lock request blocked; Aux is the first blocking tx
	EvGrant                     // blocked request granted; Aux is the wait duration
	EvUpgrade                   // read lock upgraded to write on Key
	EvGCSweep                   // dead-anchor fragment GC; Aux is fragments reclaimed
	EvCommit                    // tx committed
	EvAbort                     // tx aborted
	EvDeadlock                  // tx chosen as deadlock victim; Aux is cycle length
)

var evNames = [...]string{
	EvBegin:    "begin",
	EvWait:     "wait",
	EvGrant:    "grant",
	EvUpgrade:  "upgrade",
	EvGCSweep:  "gc-sweep",
	EvCommit:   "commit",
	EvAbort:    "abort",
	EvDeadlock: "deadlock",
}

func (k EventKind) String() string {
	if int(k) < len(evNames) {
		return evNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one flight-recorder entry. Fields that don't apply to a kind
// are zero ("" / -1 / 0) and omitted from the rendering.
type Event struct {
	Tick   int64 // clock instant (ticks or ns, per the sink's Clock)
	Kind   EventKind
	Tx     int    // transaction id
	Key    string // data item, anchor, or predicate tag; "" if none
	Stripe int    // lock-table stripe; -1 if not stripe-scoped
	Class  string // lock class: item/pred/range/gap; "" if not a lock event
	Level  string // isolation level code on EvBegin; "" otherwise
	Aux    int64  // kind-specific (see EventKind comments)
}

// String renders the event as one stable line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d] T%d %s", e.Tick, e.Tx, e.Kind)
	if e.Level != "" {
		fmt.Fprintf(&b, " level=%s", e.Level)
	}
	if e.Class != "" {
		fmt.Fprintf(&b, " %s", e.Class)
	}
	if e.Key != "" {
		fmt.Fprintf(&b, " key=%s", e.Key)
	}
	if e.Stripe >= 0 {
		fmt.Fprintf(&b, " stripe=%d", e.Stripe)
	}
	switch e.Kind {
	case EvWait:
		fmt.Fprintf(&b, " on=T%d", e.Aux)
	case EvGrant:
		fmt.Fprintf(&b, " waited=%d", e.Aux)
	case EvGCSweep:
		fmt.Fprintf(&b, " reclaimed=%d", e.Aux)
	case EvDeadlock:
		fmt.Fprintf(&b, " cycle=%d", e.Aux)
	}
	return b.String()
}

// FlightRecorder is a bounded ring buffer of Events. Writers overwrite
// the oldest entry once the ring is full; readers get events in record
// order. The mutex is internal to obs and is never held while calling
// back into engine code, so it sits strictly innermost relative to every
// engine latch (the obslatch isolint fixture documents that contract).
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	total int64 // events ever recorded; buf[total%len] is the next slot
}

// NewFlightRecorder returns a recorder holding the last size events
// (minimum 1).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// Add records an event, overwriting the oldest if the ring is full.
// Nil-safe.
func (r *FlightRecorder) Add(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.total%int64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// Total returns how many events were ever recorded (including
// overwritten ones). Nil-safe.
func (r *FlightRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first. Nil-safe.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	size := int64(len(r.buf))
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	for i := r.total - n; i < r.total; i++ {
		out = append(out, r.buf[i%size])
	}
	return out
}

// Tail returns the last n retained events, oldest first.
func (r *FlightRecorder) Tail(n int) []Event {
	evs := r.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TailStrings renders Tail(n) one line per event.
func (r *FlightRecorder) TailStrings(n int) []string {
	evs := r.Tail(n)
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.String()
	}
	return out
}
