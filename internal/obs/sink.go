package obs

import (
	"fmt"
	"strings"
)

// Lock classes tagged on wait/grant events, matching the manager's four
// lock namespaces.
const (
	ClassItem  = "item"
	ClassPred  = "pred"
	ClassRange = "range"
	ClassGap   = "gap"
)

// Sink bundles one engine instance's observability state: a Clock, the
// latency histograms, and an optional flight recorder. Every method is
// safe on a nil *Sink and does nothing, so engines keep a plain `obs
// *obs.Sink` field and call hooks unconditionally — the disabled path is
// a nil check, no allocation, no interface dispatch.
//
// A Sink never calls back into engine code and takes no engine latches;
// its only internal lock is the flight recorder's mutex, which is
// therefore strictly innermost in any latch order.
type Sink struct {
	clock  Clock
	Flight *FlightRecorder

	// Latency histograms, in the Clock's unit (ns or virtual ticks).
	Op          *Histogram // single engine op (get/put/select)
	CommitPath  *Histogram // commit path
	LockWait    *Histogram // item + predicate lock waits
	RangeWait   *Histogram // key-range + gap lock waits
	GateHold    *Histogram // exclusive predicate-gate hold
	RangeMuHold *Histogram // rangeMu hold
	Scan        *Histogram // store scan (sv.Select)

	onDeadlock func(dump string)
}

// NewSink returns a Sink over the given clock with all histograms
// allocated and no flight recorder.
func NewSink(c Clock) *Sink {
	return &Sink{
		clock:       c,
		Op:          &Histogram{},
		CommitPath:  &Histogram{},
		LockWait:    &Histogram{},
		RangeWait:   &Histogram{},
		GateHold:    &Histogram{},
		RangeMuHold: &Histogram{},
		Scan:        &Histogram{},
	}
}

// WithFlight attaches a flight recorder holding the last n events and
// returns the sink.
func (s *Sink) WithFlight(n int) *Sink {
	s.Flight = NewFlightRecorder(n)
	return s
}

// OnDeadlock registers a callback invoked with the flight-recorder dump
// each time a deadlock victim is selected. The callback runs on the
// victim's goroutine while engine latches may be held: it must not call
// back into the engine (stash the string and return).
func (s *Sink) OnDeadlock(f func(dump string)) {
	if s != nil {
		s.onDeadlock = f
	}
}

// Now returns the sink clock's current instant, or 0 on a nil sink.
// Callers pair it with a Record* method; 0 start values on the nil path
// are never recorded because the Record* call is a no-op too.
func (s *Sink) Now() int64 {
	if s == nil {
		return 0
	}
	return s.clock.Now()
}

func (s *Sink) event(ev Event) int64 {
	tick := s.clock.Now()
	if s.Flight != nil {
		ev.Tick = tick
		s.Flight.Add(ev)
	}
	return tick
}

// Begin records a transaction-begin event at an isolation level.
func (s *Sink) Begin(tx int, level string) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvBegin, Tx: tx, Stripe: -1, Level: level})
}

// Wait records a lock request blocking behind tx on.
func (s *Sink) Wait(class string, tx int, key string, stripe int, on int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvWait, Tx: tx, Key: key, Stripe: stripe, Class: class, Aux: int64(on)})
}

// Granted records a formerly blocked request being granted, measuring the
// wait from start (a prior Now()) into the class's wait histogram.
func (s *Sink) Granted(class string, tx int, key string, stripe int, start int64) {
	if s == nil {
		return
	}
	now := s.clock.Now()
	waited := now - start
	if waited < 0 {
		waited = 0
	}
	switch class {
	case ClassRange, ClassGap:
		s.RangeWait.Record(waited)
	default:
		s.LockWait.Record(waited)
	}
	if s.Flight != nil {
		s.Flight.Add(Event{Tick: now, Kind: EvGrant, Tx: tx, Key: key, Stripe: stripe, Class: class, Aux: waited})
	}
}

// Upgrade records a read-to-write lock upgrade.
func (s *Sink) Upgrade(tx int, key string, stripe int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvUpgrade, Tx: tx, Key: key, Stripe: stripe})
}

// GCSweep records a dead-anchor fragment GC pass reclaiming n fragments.
func (s *Sink) GCSweep(stripe int, reclaimed int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvGCSweep, Tx: 0, Stripe: stripe, Aux: int64(reclaimed)})
}

// Commit records a transaction commit.
func (s *Sink) Commit(tx int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvCommit, Tx: tx, Stripe: -1})
}

// Abort records a transaction abort.
func (s *Sink) Abort(tx int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvAbort, Tx: tx, Stripe: -1})
}

// Deadlock records victim selection and, if a callback is registered,
// delivers the flight-recorder dump for the waits-for cycle.
func (s *Sink) Deadlock(victim int, cycle []int) {
	if s == nil {
		return
	}
	s.event(Event{Kind: EvDeadlock, Tx: victim, Stripe: -1, Aux: int64(len(cycle))})
	if s.onDeadlock != nil {
		s.onDeadlock(s.DeadlockDump(victim, cycle, 8))
	}
}

// DeadlockDump renders a deadlock report: the victim, the waits-for
// cycle, and the last n flight-recorder events of each participant.
func (s *Sink) DeadlockDump(victim int, cycle []int, n int) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock: victim T%d\n", victim)
	b.WriteString("waits-for cycle:")
	for i, tx := range cycle {
		if i > 0 {
			b.WriteString(" ->")
		}
		fmt.Fprintf(&b, " T%d", tx)
	}
	b.WriteString("\n")
	if s.Flight == nil {
		b.WriteString("(no flight recorder attached)\n")
		return b.String()
	}
	in := make(map[int]bool, len(cycle))
	for _, tx := range cycle {
		in[tx] = true
	}
	fmt.Fprintf(&b, "last %d events per participant:\n", n)
	evs := s.Flight.Events()
	kept := make(map[int]int, len(cycle))
	// Count from the tail so each participant keeps its most recent n.
	keep := make([]bool, len(evs))
	for i := len(evs) - 1; i >= 0; i-- {
		tx := evs[i].Tx
		if in[tx] && kept[tx] < n {
			keep[i] = true
			kept[tx]++
		}
	}
	for i, e := range evs {
		if keep[i] {
			fmt.Fprintf(&b, "  %s\n", e.String())
		}
	}
	return b.String()
}

// RecordOp, RecordCommitLatency, RecordGateHold, RecordRangeMuHold, and
// RecordScan measure from start (a prior Now()) into the corresponding
// histogram. Nil-safe.

func (s *Sink) RecordOp(start int64) {
	if s == nil {
		return
	}
	s.Op.Record(s.clock.Now() - start)
}

func (s *Sink) RecordCommitLatency(start int64) {
	if s == nil {
		return
	}
	s.CommitPath.Record(s.clock.Now() - start)
}

func (s *Sink) RecordGateHold(start int64) {
	if s == nil {
		return
	}
	s.GateHold.Record(s.clock.Now() - start)
}

func (s *Sink) RecordRangeMuHold(start int64) {
	if s == nil {
		return
	}
	s.RangeMuHold.Record(s.clock.Now() - start)
}

func (s *Sink) RecordScan(start int64) {
	if s == nil {
		return
	}
	s.Scan.Record(s.clock.Now() - start)
}

// NamedHist pairs a histogram with its stable metric name.
type NamedHist struct {
	Name string
	H    *Histogram
}

// Histograms enumerates the sink's histograms in a fixed display order.
// Nil-safe: a nil sink yields nil.
func (s *Sink) Histograms() []NamedHist {
	if s == nil {
		return nil
	}
	return []NamedHist{
		{"op_latency", s.Op},
		{"commit_latency", s.CommitPath},
		{"lock_wait", s.LockWait},
		{"range_wait", s.RangeWait},
		{"gate_hold", s.GateHold},
		{"rangemu_hold", s.RangeMuHold},
		{"store_scan", s.Scan},
	}
}
