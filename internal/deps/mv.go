package deps

import (
	"sort"

	"isolevel/internal/history"
)

// The paper (§4.2): "all Snapshot Isolation histories can be mapped to
// single-valued histories while preserving dataflow dependencies", and
// "Mapping of MV histories to SV histories is the only rigorous touchstone
// needed to place Snapshot Isolation in the Isolation Hierarchy."
//
// Under SI a transaction's reads all happen (logically) at its start
// timestamp and its writes become visible at its commit timestamp. The
// mapping therefore places each committed transaction's reads at its start
// timestamp and its writes (followed by its commit) at its commit
// timestamp, ordering events by timestamp. H1.SI maps to H1.SI.SV exactly
// this way.

// MVTxn is one transaction of a multiversion (Snapshot Isolation)
// execution: its interval timestamps and its read/write actions in program
// order. Timestamps must be distinct across all events of an execution
// (engines guarantee this; the syntactic converter synthesizes them from
// history positions).
type MVTxn struct {
	Tx        int
	Start     int64 // start timestamp (snapshot point)
	Commit    int64 // commit timestamp; meaningful only if Committed
	Committed bool
	Reads     []history.Op // item and predicate reads, program order
	Writes    []history.Op // item and predicate writes, program order
}

// SVEvent is one timestamped block of actions of a multiversion execution
// headed for the single-valued mapping: MapEventsToSV orders blocks by
// (TS, Seq) and concatenates their ops. Callers use Seq — assigned
// monotonically in whatever order they emit events — as the deterministic
// tie-break for blocks sharing a timestamp.
type SVEvent struct {
	TS  int64
	Seq int
	Ops history.History
}

// MapEventsToSV orders the event blocks by (TS, Seq) and concatenates
// them into a single-valued history, dropping version subscripts. This is
// the general form of the paper's MV→SV mapping: MapToSV uses it with the
// transaction-level snapshot (all reads at Start), the fuzz harness with
// one event per read at the read's own snapshot, which covers Read
// Consistency's statement-level snapshots.
func MapEventsToSV(events []SVEvent) history.History {
	sorted := make([]SVEvent, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TS != sorted[j].TS {
			return sorted[i].TS < sorted[j].TS
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	var out history.History
	for _, e := range sorted {
		for _, op := range e.Ops {
			op.Version = -1 // single-valued: drop version subscripts
			out = append(out, op)
		}
	}
	return out
}

// MapToSV maps an SI execution to the paper's single-valued history:
// committed transactions contribute their reads at Start and their writes
// plus commit at Commit; aborted transactions contribute their reads at
// Start and an abort there too (their writes never became visible to
// anyone). Events are ordered by timestamp, a transaction's own
// same-timestamp events in this order.
func MapToSV(txns []MVTxn) history.History {
	var events []SVEvent
	for i, t := range txns {
		tail, tailTS := history.History{{Tx: t.Tx, Kind: history.Abort, Version: -1}}, t.Start
		if t.Committed {
			tail = append(append(history.History{}, t.Writes...), history.Op{Tx: t.Tx, Kind: history.Commit, Version: -1})
			tailTS = t.Commit
		}
		events = append(events, SVEvent{t.Start, 2 * i, t.Reads}, SVEvent{tailTS, 2*i + 1, tail})
	}
	return MapEventsToSV(events)
}

// FromMVHistory converts a syntactic multiversion history (version
// subscripts as in H1.SI) into MVTxn form, synthesizing timestamps from
// history positions: a transaction's start timestamp is the position of its
// first action, its commit timestamp the position of its terminal.
func FromMVHistory(h history.History) []MVTxn {
	byTx := map[int]*MVTxn{}
	var order []int
	for i, op := range h {
		t, ok := byTx[op.Tx]
		if !ok {
			t = &MVTxn{Tx: op.Tx, Start: int64(i)}
			byTx[op.Tx] = t
			order = append(order, op.Tx)
		}
		switch {
		case op.Kind == history.Commit:
			t.Commit = int64(i)
			t.Committed = true
		case op.Kind == history.Abort:
			t.Commit = int64(i)
		case op.Kind.IsRead():
			t.Reads = append(t.Reads, op)
		case op.Kind.IsWrite():
			t.Writes = append(t.Writes, op)
		}
	}
	out := make([]MVTxn, 0, len(order))
	for _, tx := range order {
		out = append(out, *byTx[tx])
	}
	return out
}

// SISerializable reports whether the SI execution, mapped to its
// single-valued form, is conflict-serializable. Per §4.2 this is the
// touchstone for whether a particular SI execution had serializable
// dataflows (H1.SI does; the write-skew execution H5 does not).
func SISerializable(txns []MVTxn) bool {
	return Serializable(MapToSV(txns))
}
