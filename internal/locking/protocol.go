package locking

import (
	"fmt"

	"isolevel/internal/engine"
)

// Duration is a lock duration class from Table 2.
type Duration uint8

// Durations. DurCursor is the Cursor Stability rule: the lock on the row
// under a cursor is "held on current of cursor" — released when the cursor
// moves or closes (unless the row was written, in which case the write lock
// persists to commit).
const (
	DurNone   Duration = iota // no lock requested
	DurShort                  // released immediately after the action
	DurLong                   // held until commit/abort
	DurCursor                 // held while the cursor is positioned on the row
)

func (d Duration) String() string {
	switch d {
	case DurNone:
		return "none"
	case DurShort:
		return "short"
	case DurLong:
		return "long"
	case DurCursor:
		return "while-current"
	}
	return fmt.Sprintf("Duration(%d)", int(d))
}

// Protocol is one row of the paper's Table 2: the lock scopes, modes and
// durations a locking isolation level requests. Write locks are always
// Exclusive on data items; read locks are Shared on items and predicates.
type Protocol struct {
	Level engine.Level
	// ReadItem is the duration of Shared locks on individual data items
	// read by Get and by Select's row accesses — except a Select under a
	// long predicate lock on the predicate protocol, whose predicate lock
	// covers its rows (Tx.Select).
	ReadItem Duration
	// ReadPred is the duration of Shared predicate locks taken by Select
	// (and by OpenCursor's predicate evaluation).
	ReadPred Duration
	// WriteItem is the duration of Exclusive locks on written items. Only
	// Degree 0 uses short write locks; everything stronger is long
	// (Remark 3: recovery requires long write locks).
	WriteItem Duration
	// CursorRead is the duration of the Shared lock taken by a cursor
	// Fetch on the row it lands on.
	CursorRead Duration
}

// Protocols is Table 2 as executable data. The Table 2 regenerator prints
// this map and then verifies each entry behaviorally with live probes.
var Protocols = map[engine.Level]Protocol{
	// Degree 0: "none required" for reads; "Well-formed Writes" only —
	// short write locks, action atomicity.
	engine.Degree0: {
		Level:    engine.Degree0,
		ReadItem: DurNone, ReadPred: DurNone,
		WriteItem: DurShort, CursorRead: DurNone,
	},
	// Degree 1 = Locking READ UNCOMMITTED: long write locks, no read locks.
	engine.ReadUncommitted: {
		Level:    engine.ReadUncommitted,
		ReadItem: DurNone, ReadPred: DurNone,
		WriteItem: DurLong, CursorRead: DurNone,
	},
	// Degree 2 = Locking READ COMMITTED: short read locks (items and
	// predicates), long write locks.
	engine.ReadCommitted: {
		Level:    engine.ReadCommitted,
		ReadItem: DurShort, ReadPred: DurShort,
		WriteItem: DurLong, CursorRead: DurShort,
	},
	// Cursor Stability: READ COMMITTED plus "Read locks held on current of
	// cursor"; predicate read locks stay short.
	engine.CursorStability: {
		Level:    engine.CursorStability,
		ReadItem: DurShort, ReadPred: DurShort,
		WriteItem: DurLong, CursorRead: DurCursor,
	},
	// Locking REPEATABLE READ: long data-item read locks, short predicate
	// read locks (phantoms remain possible), long write locks.
	engine.RepeatableRead: {
		Level:    engine.RepeatableRead,
		ReadItem: DurLong, ReadPred: DurShort,
		WriteItem: DurLong, CursorRead: DurLong,
	},
	// Degree 3 = Locking SERIALIZABLE: long read locks on items and
	// predicates — well-formed two-phase locking.
	engine.Serializable: {
		Level:    engine.Serializable,
		ReadItem: DurLong, ReadPred: DurLong,
		WriteItem: DurLong, CursorRead: DurLong,
	},
}

// LockingLevels lists the levels the locking engine implements, in Table 2
// row order.
var LockingLevels = []engine.Level{
	engine.Degree0, engine.ReadUncommitted, engine.ReadCommitted,
	engine.CursorStability, engine.RepeatableRead, engine.Serializable,
}
