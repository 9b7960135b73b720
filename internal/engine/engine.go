// Package engine defines the contract every concurrency-control engine in
// this repository implements: the locking scheduler of Table 2, the
// Snapshot Isolation engine of §4.2, and the Oracle-style Read Consistency
// engine of §4.3. The anomaly harness, the examples, and the benchmarks
// program against these interfaces only.
//
//isolint:deterministic
package engine

import (
	"errors"
	"fmt"
	"strings"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// Level is an isolation level, covering the locking levels of Table 2 and
// the multiversion levels of §4.
type Level int

// Isolation levels in increasing (partial) strength order. The names
// follow the paper's Table 2 and §4; Degree 1–3 are the [GLPT] aliases.
const (
	// Degree0 requires only well-formed (short) write locks: action
	// atomicity. Dirty writes are possible.
	Degree0 Level = iota
	// ReadUncommitted (Degree 1) holds long write locks: no dirty writes,
	// but reads are unlocked and may be dirty.
	ReadUncommitted
	// ReadCommitted (Degree 2) adds well-formed short read locks.
	ReadCommitted
	// CursorStability (§4.1) extends ReadCommitted: the lock on the row
	// under a cursor is held until the cursor moves, preventing P4C.
	CursorStability
	// RepeatableRead holds long item read locks but only short predicate
	// read locks: everything but phantoms.
	RepeatableRead
	// Serializable (Degree 3) holds long read locks on items and
	// predicates: full two-phase locking.
	Serializable
	// SnapshotIsolation is the multiversion level defined by the paper's
	// §4.2: snapshot reads at the start timestamp plus First-Committer-Wins.
	SnapshotIsolation
	// ReadConsistency is Oracle's statement-level snapshot isolation
	// (§4.3): each statement reads the latest committed state as of the
	// statement's start; writes take long write locks (first-writer-wins).
	ReadConsistency
)

// Levels lists all levels in declaration order.
var Levels = []Level{Degree0, ReadUncommitted, ReadCommitted, CursorStability,
	RepeatableRead, Serializable, SnapshotIsolation, ReadConsistency}

func (l Level) String() string {
	switch l {
	case Degree0:
		return "DEGREE 0"
	case ReadUncommitted:
		return "READ UNCOMMITTED"
	case ReadCommitted:
		return "READ COMMITTED"
	case CursorStability:
		return "CURSOR STABILITY"
	case RepeatableRead:
		return "REPEATABLE READ"
	case Serializable:
		return "SERIALIZABLE"
	case SnapshotIsolation:
		return "SNAPSHOT ISOLATION"
	case ReadConsistency:
		return "READ CONSISTENCY"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Code returns the short mnemonic used by per-transaction level
// annotations ("# levels: T1=RR T2=SI ...") and by mixed-run reports:
// D0, RU, RC, CS, RR, SER, SI, ORC.
func (l Level) Code() string {
	switch l {
	case Degree0:
		return "D0"
	case ReadUncommitted:
		return "RU"
	case ReadCommitted:
		return "RC"
	case CursorStability:
		return "CS"
	case RepeatableRead:
		return "RR"
	case Serializable:
		return "SER"
	case SnapshotIsolation:
		return "SI"
	case ReadConsistency:
		return "ORC"
	}
	return fmt.Sprintf("L%d", int(l))
}

// ParseLevel resolves a level from its full name ("REPEATABLE READ"), its
// short code ("RR"), or the full name with spaces dropped or replaced by
// underscores ("REPEATABLEREAD", "repeatable_read") — the last form is
// what single-token contexts like "# levels: T1=REPEATABLE_READ" need.
// Case-insensitive.
func ParseLevel(s string) (Level, bool) {
	squeezed := strings.ReplaceAll(s, "_", "")
	for _, l := range Levels {
		if strings.EqualFold(s, l.String()) || strings.EqualFold(s, l.Code()) ||
			strings.EqualFold(squeezed, strings.ReplaceAll(l.String(), " ", "")) {
			return l, true
		}
	}
	return 0, false
}

// Engine errors. Engines wrap these (errors.Is-compatible) so detectors can
// classify how an anomaly was prevented.
var (
	// ErrDeadlock: the operation was chosen as a deadlock victim; the
	// transaction must be aborted by the caller.
	ErrDeadlock = errors.New("engine: deadlock victim")
	// ErrWriteConflict: Snapshot Isolation First-Committer-Wins failed the
	// commit ("the transaction successfully commits only if no other
	// transaction with a Commit-Timestamp in its execution interval wrote
	// data that it also wrote").
	ErrWriteConflict = errors.New("engine: first-committer-wins write-write conflict")
	// ErrRowChanged: Read Consistency detected that the row under a cursor
	// changed since the cursor opened (write consistency check).
	ErrRowChanged = errors.New("engine: row changed since cursor snapshot")
	// ErrTxDone: operation on a committed or aborted transaction.
	ErrTxDone = errors.New("engine: transaction already terminated")
	// ErrNoCursor: cursor operation without an open cursor row.
	ErrNoCursor = errors.New("engine: no current cursor row")
	// ErrUnsupported: the engine does not implement the operation (e.g.
	// AsOf on a locking engine).
	ErrUnsupported = errors.New("engine: unsupported operation")
	// ErrSnapshotTooOld: a multiversion transaction was asked to start as
	// of a timestamp older than every open snapshot; the versions visible
	// there may already have been forgotten.
	ErrSnapshotTooOld = errors.New("engine: snapshot too old")
	// ErrNotFound: Get on an absent row. Distinct from a nil error with a
	// nil row so detectors never confuse "absent" with "zero".
	ErrNotFound = errors.New("engine: row not found")
)

// DB is a database engine instance: a store plus a concurrency-control
// scheduler. Engines are safe for concurrent use by multiple goroutines,
// one transaction per goroutine.
type DB interface {
	// Begin starts a transaction at the given isolation level. Engines
	// reject levels they do not implement with ErrUnsupported.
	Begin(level Level) (Tx, error)
	// Load bulk-inserts rows outside any transaction (test/bench setup).
	Load(tuples ...data.Tuple)
	// ReadCommitted returns the current committed value of key as seen by a
	// fresh observer (final-state checks in detectors), or nil if absent.
	ReadCommittedRow(key data.Key) data.Row
}

// Tx is one transaction. Methods must be called from a single goroutine.
// Any error other than ErrNotFound leaves the transaction in a state where
// the caller must Abort it.
type Tx interface {
	// ID returns the engine-assigned transaction identifier (unique per DB).
	ID() int
	// Level returns the isolation level the transaction runs at.
	Level() Level

	// Get reads a single row; ErrNotFound if absent (or invisible).
	Get(key data.Key) (data.Row, error)
	// Put inserts or updates a row.
	Put(key data.Key, row data.Row) error
	// Delete removes a row.
	Delete(key data.Key) error
	// Select returns all visible rows satisfying p, sorted by key.
	Select(p predicate.P) ([]data.Tuple, error)

	// OpenCursor opens a cursor over the rows satisfying p (§4.1). Multiple
	// cursors may be open; each holds its own current-row lock per the
	// level's protocol.
	OpenCursor(p predicate.P) (Cursor, error)

	// Commit terminates the transaction, making its writes durable and
	// visible. Under Snapshot Isolation it may fail with ErrWriteConflict.
	Commit() error
	// Abort rolls the transaction back.
	Abort() error
}

// Cursor is a SQL-style cursor (§4.1): FETCH advances to the next row and
// (at Cursor Stability) moves the current-row lock with it; UpdateCurrent
// writes through the cursor ("wc").
type Cursor interface {
	// Fetch advances to the next row, returning ErrNotFound when exhausted.
	Fetch() (data.Tuple, error)
	// Current returns the tuple the cursor is on.
	Current() (data.Tuple, error)
	// UpdateCurrent overwrites the row under the cursor.
	UpdateCurrent(row data.Row) error
	// Close releases the cursor and any lock it still holds.
	Close() error
}

// GetVal is a convenience wrapper returning the scalar ValField of key.
func GetVal(tx Tx, key data.Key) (int64, error) {
	row, err := tx.Get(key)
	if err != nil {
		return 0, err
	}
	return row.Val(), nil
}

// PutVal is a convenience wrapper writing a scalar row.
func PutVal(tx Tx, key data.Key, v int64) error {
	return tx.Put(key, data.Scalar(v))
}

// IsPrevention reports whether err is one of the errors by which an engine
// prevents an anomaly (deadlock victim, FCW conflict, row-changed).
func IsPrevention(err error) bool {
	return IsRetryable(err)
}

// IsRetryable reports whether err means the transaction was aborted by the
// scheduler rather than by application logic — a deadlock victim, a failed
// First-Committer-Wins check, or a Read Consistency row-changed detection.
// Retrying the whole transaction from the top is the correct client
// response; the error set is exactly IsPrevention's, but the two names keep
// the detectors' question ("was this anomaly prevented?") separate from the
// traffic tier's ("should the client retry?"). Matches wrapped errors via
// errors.Is.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrWriteConflict) || errors.Is(err, ErrRowChanged)
}

// SelectRange is a convenience wrapper for the half-open key-range scan
// [lo, hi): Select with a predicate.KeyRange, which key-range locking maps
// onto gap fragments covering exactly the scanned interval.
func SelectRange(tx Tx, lo, hi data.Key) ([]data.Tuple, error) {
	return tx.Select(predicate.KeyRange{Lo: lo, Hi: hi})
}
