// Package locking implements the single-version lock-based engine of the
// paper's Table 2: Degree 0, READ UNCOMMITTED, READ COMMITTED, Cursor
// Stability, REPEATABLE READ, and SERIALIZABLE, differing only in the
// durations of the read/write locks they request (see Protocols).
//
// The engine writes in place against an sv.Store and rolls back with
// before-image undo, exactly the recovery model whose interaction with
// Dirty Writes the paper discusses in §3.
//
// Phantom prevention — the predicate-lock rows of Table 2 — comes in two
// interchangeable protocols (WithPhantomProtection): the paper's literal
// predicate table behind the lock manager's cross-stripe gate, or
// key-range (next-key) locking, which decomposes each scan's protection
// into striped next-key fragments and gives inserts a covering-gap lock.
// The Table 2 durations apply identically to both, and the differential
// fuzzer holds them behaviorally equivalent at every level.
//
//isolint:deterministic
package locking

import (
	"errors"
	"fmt"
	"sync/atomic"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/obs"
	"isolevel/internal/predicate"
	"isolevel/internal/sv"
)

// Option configures a DB.
type Option func(*DB)

// WithShards sets the stripe count of the lock manager's item lock tables
// and of the underlying row store (default lock.DefaultShards). One
// stripe reproduces the old single-latch lock manager and is the baseline
// of the shard-sweep benchmarks; higher counts let disjoint-key lock
// traffic proceed in parallel.
func WithShards(n int) Option {
	return func(db *DB) { db.shards = n }
}

// Phantom selects the engine's phantom-prevention protocol: how the lock
// scheduler implements the predicate-lock rows of Table 2.
type Phantom uint8

const (
	// PhantomPredicate is the paper's literal mechanism: one predicate
	// lock per Select, in the lock manager's cross-stripe table behind the
	// shared-exclusive gate.
	PhantomPredicate Phantom = iota
	// PhantomKeyrange is the practical mechanism real schedulers use:
	// key-range (next-key) locks. A Select locks the existing keys of its
	// predicate's key range plus the gaps between them (per-stripe
	// fragments, image-refined — see internal/lock/keyrange.go), and an
	// insert acquires its covering gap's exclusive lock. Behaviorally
	// equivalent to PhantomPredicate — same conflicts, same waits, same
	// deadlock victims — but with no cross-stripe gate on any path.
	PhantomKeyrange
)

func (p Phantom) String() string {
	if p == PhantomKeyrange {
		return "keyrange"
	}
	return "predicate"
}

// WithPhantomProtection selects the phantom-prevention protocol (default
// PhantomPredicate, the paper's). The Table 2 lock durations are shared:
// a keyrange engine holds its range locks exactly as long as a predicate
// engine holds its predicate locks.
func WithPhantomProtection(p Phantom) Option {
	return func(db *DB) { db.phantom = p }
}

// DB is a locking-scheduler database.
type DB struct {
	store   *sv.Store
	lm      *lock.Manager
	seq     atomic.Int64
	rec     *engine.Recorder
	shards  int
	phantom Phantom
	obs     *obs.Sink
}

// NewDB returns an empty locking database.
func NewDB(opts ...Option) *DB {
	db := &DB{shards: lock.DefaultShards, rec: engine.NewRecorder()}
	for _, o := range opts {
		o(db)
	}
	db.store = sv.NewStoreShards(db.shards)
	db.lm = lock.NewManagerShards(db.shards)
	// Row presence feeds the lock manager's fragment GC (dead-anchor
	// sweeps); harmless on the predicate protocol, which never installs
	// fragments.
	db.lm.SetRowPresent(db.store.Exists)
	return db
}

// ShardCount reports the stripe count of the lock manager (the row store
// uses the same count).
func (db *DB) ShardCount() int { return db.lm.ShardCount() }

// PhantomProtection reports the engine's phantom-prevention protocol.
func (db *DB) PhantomProtection() Phantom { return db.phantom }

// SetObserver forwards a wait observer to the lock manager (the schedule
// runner's deterministic block detection).
func (db *DB) SetObserver(o lock.Observer) { db.lm.SetObserver(o) }

// ParkGrants forwards grant parking to the lock manager (the schedule
// runner's one-op-at-a-time delivery of lock grants).
func (db *DB) ParkGrants(on bool) { db.lm.ParkGrants(on) }

// DeliverNextGrant wakes the oldest parked waiter, if any.
func (db *DB) DeliverNextGrant() (lock.TxID, bool) { return db.lm.DeliverNextGrant() }

// SetObs attaches an observability sink to the engine, its lock manager
// and its store: engine-level op/commit latency here, lock events and
// wait/hold latencies in the manager, scan latency in the store. Nil
// detaches. Must be called before concurrent use, like SetObserver.
func (db *DB) SetObs(s *obs.Sink) {
	db.obs = s
	db.lm.SetObs(s)
	db.store.SetObs(s)
}

// Obs returns the attached observability sink (nil when detached) —
// drivers use it to time whole transactions against the same clock.
func (db *DB) Obs() *obs.Sink { return db.obs }

// Recorder exposes the execution recorder.
func (db *DB) Recorder() *engine.Recorder { return db.rec }

// LockStats returns the lock manager counters.
func (db *DB) LockStats() lock.Stats { return db.lm.Stats() }

// Load implements engine.DB.
func (db *DB) Load(tuples ...data.Tuple) { db.store.Load(tuples...) }

// ReadCommittedRow implements engine.DB. For the single-version store the
// current row is whatever is in place; callers use it only after all
// transactions have terminated.
func (db *DB) ReadCommittedRow(key data.Key) data.Row { return db.store.Get(key) }

// Levels implements engine.DB.
func (db *DB) Levels() []engine.Level { return LockingLevels }

// Begin implements engine.DB.
func (db *DB) Begin(level engine.Level) (engine.Tx, error) {
	proto, ok := Protocols[level]
	if !ok {
		return nil, fmt.Errorf("%w: locking engine does not implement %s", engine.ErrUnsupported, level)
	}
	id := int(db.seq.Add(1))
	db.obs.Begin(id, level.Code())
	return &Tx{db: db, id: id, proto: proto}, nil
}

// Tx is a locking transaction.
type Tx struct {
	db    *DB
	id    int
	proto Protocol
	undo  sv.UndoLog
	done  bool
	// doomed is set when the lock manager refuses this transaction as a
	// deadlock victim. A victim must roll back: every later op fails fast
	// with the same deadlock error and Commit refuses and rolls back
	// instead. Without this, a caller that queued a commit behind a
	// refused op would commit a transaction with some of its effects
	// silently missing.
	doomed bool
}

var _ engine.Tx = (*Tx)(nil)

// ID implements engine.Tx.
func (t *Tx) ID() int { return t.id }

// Level implements engine.Tx.
func (t *Tx) Level() engine.Level { return t.proto.Level }

func (t *Tx) lockErr(err error) error {
	if errors.Is(err, lock.ErrDeadlock) {
		t.doomed = true
		return t.doomErr()
	}
	return err
}

// doomErr is the error every op (and the commit) of a deadlock victim
// returns; the format matches the original refusal so repeated failures
// read identically.
func (t *Tx) doomErr() error {
	return fmt.Errorf("%w (T%d)", engine.ErrDeadlock, t.id)
}

// Get implements engine.Tx. The read lock duration follows the protocol:
// none (dirty reads allowed), short (released right after the read), or
// long (held to commit — repeatable).
func (t *Tx) Get(key data.Key) (data.Row, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if t.doomed {
		return nil, t.doomErr()
	}
	start := t.db.obs.Now()
	switch t.proto.ReadItem {
	case DurNone:
		// No read locks: sees in-place uncommitted data.
	case DurShort, DurLong:
		if err := t.db.lm.AcquireItem(lock.TxID(t.id), key, lock.S, lock.Images{Before: t.db.store.Get(key)}); err != nil {
			t.db.obs.RecordOp(start)
			return nil, t.lockErr(err)
		}
	}
	row := t.db.store.Get(key)
	t.recordRead(key, row)
	if t.proto.ReadItem == DurShort {
		t.db.lm.ReleaseItem(lock.TxID(t.id), key)
	}
	t.db.obs.RecordOp(start)
	if row == nil {
		return nil, engine.ErrNotFound
	}
	return row, nil
}

// Put implements engine.Tx: Exclusive item lock (long everywhere except
// Degree 0), in-place write, before-image to the undo log.
func (t *Tx) Put(key data.Key, row data.Row) error {
	return t.write(key, row.Clone())
}

// Delete implements engine.Tx.
func (t *Tx) Delete(key data.Key) error {
	return t.write(key, nil)
}

func (t *Tx) write(key data.Key, after data.Row) error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.doomed {
		return t.doomErr()
	}
	start := t.db.obs.Now()
	peek := t.db.store.Get(key) // image for predicate-lock conflicts
	im := lock.Images{Before: peek, After: after}
	if err := t.lockForWrite(key, peek, im); err != nil {
		t.db.obs.RecordOp(start)
		return t.lockErr(err)
	}
	var before data.Row
	if after == nil {
		before = t.db.store.Delete(key)
	} else {
		before = t.db.store.Put(key, after)
	}
	t.undo.Note(key, before)
	t.db.rec.RecordWrite(t.id, key, before, after)
	if t.proto.WriteItem == DurShort {
		// Degree 0: well-formed writes only — the lock does not outlive the
		// action, so dirty writes become possible.
		t.db.lm.ReleaseItem(lock.TxID(t.id), key)
	}
	t.db.obs.RecordOp(start)
	return nil
}

// scanGuard is the phantom-protection lock a Select or OpenCursor holds
// while evaluating its predicate: a predicate lock (PhantomPredicate) or a
// key-range lock (PhantomKeyrange). The guard's lifetime follows the
// protocol's predicate-read duration either way.
type scanGuard struct {
	t       *Tx
	held    bool
	isRange bool
	pred    lock.PredHandle
	rng     lock.RangeHandle
}

// acquireScanGuard takes the protocol's phantom-protection lock for p — a
// no-op guard when the level requests none (ReadPred DurNone).
func (t *Tx) acquireScanGuard(p predicate.P) (scanGuard, error) {
	g := scanGuard{t: t}
	if t.proto.ReadPred == DurNone {
		return g, nil
	}
	if t.db.phantom == PhantomKeyrange {
		lo, hi, bounded := predicate.KeyBounds(p)
		// The anchor set is snapshotted by the lock manager at install
		// time, under its range mutex — not here — so a key inserted and
		// committed on the way to the acquisition still gets a fragment.
		// SnapshotInto appends the per-stripe runs into the manager's
		// reusable buffer: the snapshot allocates nothing at steady state.
		h, err := t.db.lm.AcquireRange(lock.TxID(t.id), lock.RangeSpec{
			Pred: p,
			SnapshotInto: func(r *data.KeyRuns) data.Key {
				return t.db.store.AppendRangeAnchors(r, lo, hi, bounded)
			},
			Lo: lo, Hi: hi, Bounded: bounded,
		})
		if err != nil {
			return g, t.lockErr(err)
		}
		g.held, g.isRange, g.rng = true, true, h
		return g, nil
	}
	h, err := t.db.lm.AcquirePred(lock.TxID(t.id), p, lock.S)
	if err != nil {
		return g, t.lockErr(err)
	}
	g.held, g.pred = true, h
	return g, nil
}

// releaseShort releases the guard when the protocol's predicate-read locks
// are short-duration (long guards fall to ReleaseAll at commit/abort).
func (g scanGuard) releaseShort() {
	if !g.held || g.t.proto.ReadPred != DurShort {
		return
	}
	if g.isRange {
		g.t.db.lm.ReleaseRange(lock.TxID(g.t.id), g.rng)
	} else {
		g.t.db.lm.ReleasePred(lock.TxID(g.t.id), g.pred)
	}
}

// lockForWrite acquires the locks that guard installing im.After at key —
// shared by Tx.write and Cursor.UpdateCurrent (which can also re-create a
// row another transaction deleted under the cursor). Under the keyrange
// protocol a write that creates a row must hold the covering gap's
// exclusive lock: when the pre-lock peek saw no row, the gap lock is
// taken before the item lock; and whenever the row is absent *under* the
// item lock — the pre-lock peek may have raced a concurrent delete, or a
// scan may have started between the gap check and the item install — the
// gap is (re)verified with the item lock already visible, so either the
// scan's conflict sweep sees this writer or this recheck sees the scan's
// fragments. Both extra steps are no-ops on the predicate protocol and,
// for existing rows, on scripted runs.
func (t *Tx) lockForWrite(key data.Key, peek data.Row, im lock.Images) error {
	tid := lock.TxID(t.id)
	keyrange := t.db.phantom == PhantomKeyrange
	if keyrange && peek == nil && im.After != nil {
		if err := t.db.lm.AcquireGap(tid, key, im); err != nil {
			return err
		}
	}
	if err := t.db.lm.AcquireItem(tid, key, lock.X, im); err != nil {
		return err
	}
	if keyrange && im.After != nil && !t.db.store.Exists(key) {
		if err := t.db.lm.RecheckGap(tid, key, im); err != nil {
			return err
		}
	}
	return nil
}

// Select implements engine.Tx: a phantom-protection lock (predicate or
// key-range, per the engine's protocol) for the scan, then per-row item
// locks on the matching rows.
func (t *Tx) Select(p predicate.P) ([]data.Tuple, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	if t.doomed {
		return nil, t.doomErr()
	}
	start := t.db.obs.Now()
	g, err := t.acquireScanGuard(p)
	if err != nil {
		t.db.obs.RecordOp(start)
		return nil, err
	}
	matches := t.db.store.Select(p)
	var out []data.Tuple
	for _, m := range matches {
		switch t.proto.ReadItem {
		case DurNone:
			out = append(out, m)
		case DurShort, DurLong:
			if err := t.db.lm.AcquireItem(lock.TxID(t.id), m.Key, lock.S, lock.Images{Before: m.Row}); err != nil {
				g.releaseShort()
				t.db.obs.RecordOp(start)
				return nil, t.lockErr(err)
			}
			// Re-read under the lock: the row may have changed (or vanished)
			// while we waited.
			row := t.db.store.Get(m.Key)
			if row != nil && p.Match(data.Tuple{Key: m.Key, Row: row}) {
				out = append(out, data.Tuple{Key: m.Key, Row: row})
			}
			if t.proto.ReadItem == DurShort {
				t.db.lm.ReleaseItem(lock.TxID(t.id), m.Key)
			}
		}
	}
	t.db.rec.RecordPredRead(t.id, p)
	g.releaseShort()
	t.db.obs.RecordOp(start)
	return out, nil
}

// Commit implements engine.Tx: record, then release every lock (the end of
// all long-duration locks).
func (t *Tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	if t.doomed {
		// A deadlock victim cannot commit: some of its ops were refused,
		// so committing would publish a transaction with effects missing.
		// Roll back instead and report the refusal to the caller.
		t.done = true
		t.undo.Rollback(t.db.store)
		t.db.rec.Record(historyOp(t.id, false))
		t.db.obs.Abort(t.id)
		t.db.lm.ReleaseAll(lock.TxID(t.id))
		return t.doomErr()
	}
	t.done = true
	start := t.db.obs.Now()
	t.db.rec.Record(historyOp(t.id, true))
	// The commit event marks the commit point; the lock releases (and the
	// grants they cause) follow it in the flight recorder.
	t.db.obs.Commit(t.id)
	t.db.lm.ReleaseAll(lock.TxID(t.id))
	t.db.obs.RecordCommitLatency(start)
	return nil
}

// Abort implements engine.Tx: roll back by restoring before-images in
// reverse order, then release locks. At Degree 0 (short write locks) this
// undo is exactly the unsound procedure of §3 — the engine performs it
// anyway; the store-level corruption is the demonstrated anomaly.
func (t *Tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	t.undo.Rollback(t.db.store)
	t.db.rec.Record(historyOp(t.id, false))
	t.db.obs.Abort(t.id)
	t.db.lm.ReleaseAll(lock.TxID(t.id))
	return nil
}

func (t *Tx) recordRead(key data.Key, row data.Row) {
	op := readOp(t.id, key, row)
	t.db.rec.Record(op)
}
