package mvcc

// Oracle-style Read Consistency transactions, per the paper's §4.3:
//
//   - "Oracle Read Consistency isolation gives each SQL statement the most
//     recent committed database value at the time the statement began" —
//     every Get/Select takes a fresh statement-level snapshot ("it is as if
//     the start-timestamp of the transaction is advanced at each SQL
//     statement").
//   - "Row inserts, updates, and deletes are covered by Write locks to give
//     a first-writer-wins rather than a first-committer-wins policy" —
//     writes acquire long exclusive locks and block, rather than abort, on
//     conflict; after the lock is granted the write proceeds against the
//     then-current committed state.
//   - "The members of a cursor set are as of the time of the Open Cursor";
//     cursor updates re-check the row against the cursor snapshot so cursor
//     lost updates (P4C) cannot occur, while plain lost updates (P4), fuzzy
//     reads (P2), phantoms (P3) and read skew (A5A) all remain possible.

import (
	"errors"
	"fmt"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/mv"
	"isolevel/internal/predicate"
)

// RCTx is a Read Consistency transaction.
type RCTx struct {
	db     *DB
	id     int
	writes map[data.Key]data.Row // own uncommitted writes (overlay), nil = delete; the rows Put was given, installed as they are
	order  []data.Key
	done   bool

	// reads records each statement's item reads with the statement
	// snapshot they executed at, for the statement-level SV mapping
	// (SVTrace). commitTS/committed are set at Commit.
	reads     []TimedRead
	commitTS  mv.TS
	committed bool

	// rangeReads records each key-range scan's result set with its
	// statement-snapshot slot for the harness's range-read certification.
	rangeReads []RangeRead

	// cursors are the cursors this transaction opened; each holds its
	// snapshot registered until it is closed, here at the latest.
	cursors []*rcCursor

	// Inline backing for order, and the stripe list of Commit's write-set
	// latches.
	orderBuf   [2]data.Key
	stripesBuf [2]int
}

// TimedRead is one recorded read together with the statement-snapshot
// timestamp it executed at.
type TimedRead struct {
	TS mv.TS
	Op history.Op
}

var _ engine.Tx = (*RCTx)(nil)

// ID implements engine.Tx.
func (t *RCTx) ID() int { return t.id }

// Level implements engine.Tx.
func (t *RCTx) Level() engine.Level { return engine.ReadConsistency }

func (t *RCTx) lockErr(err error) error {
	if errors.Is(err, lock.ErrDeadlock) {
		return fmt.Errorf("%w (T%d)", engine.ErrDeadlock, t.id)
	}
	return err
}

// statementTS registers and returns a fresh statement-level snapshot: the
// most recent fully installed committed timestamp right now (the
// watermark, so a statement never sees a torn concurrent commit). The
// statement releases it after its last store access (DB.readCommitted says
// what goes wrong otherwise).
func (t *RCTx) statementTS() mv.TS { return t.db.oracle.Acquire() }

// Get implements engine.Tx: a single-row statement; reads the latest
// committed value as of statement start, overlaid by own writes.
func (t *RCTx) Get(key data.Key) (data.Row, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	start := t.db.obs.Now()
	if row, ok := t.writes[key]; ok {
		if row == nil {
			t.db.obs.RecordOp(start)
			return nil, engine.ErrNotFound
		}
		t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1}.WithValue(row.Val()))
		t.db.obs.RecordOp(start)
		return row, nil
	}
	v, ok, ts := t.db.readCommitted(key)
	if !ok {
		op := history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1}
		t.reads = append(t.reads, TimedRead{TS: ts, Op: op})
		t.db.rec.Record(op)
		t.db.obs.RecordOp(start)
		return nil, engine.ErrNotFound
	}
	op := history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1}.WithValue(v.Row.Val())
	t.reads = append(t.reads, TimedRead{TS: ts, Op: op})
	t.db.rec.Record(op)
	t.db.obs.RecordOp(start)
	return v.Row, nil
}

// Delete implements engine.Tx: a Put of no row.
func (t *RCTx) Delete(key data.Key) error { return t.Put(key, nil) }

// Put implements engine.Tx: take a long write lock (first-writer-wins —
// block, don't abort), then buffer the write; that row is the version
// Commit installs.
func (t *RCTx) Put(key data.Key, row data.Row) error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	var before data.Row
	if v, ok, _ := t.db.readCommitted(key); ok {
		before = v.Row
	}
	if err := t.db.lm.AcquireItem(lock.TxID(t.id), key, lock.X, lock.Images{Before: before, After: row}); err != nil {
		t.db.obs.RecordOp(start)
		return t.lockErr(err)
	}
	if _, ok := t.writes[key]; !ok {
		t.order = append(t.order, key)
	}
	t.writes[key] = row
	t.db.rec.RecordWrite(t.id, key, before, row)
	t.db.obs.RecordOp(start)
	return nil
}

// Select implements engine.Tx: statement-level snapshot scan with own
// writes overlaid. Two Selects in the same transaction may see different
// committed states — that is the P2/P3-permitting behavior of §4.3.
func (t *RCTx) Select(p predicate.P) ([]data.Tuple, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	start := t.db.obs.Now()
	ts := t.statementTS()
	out, err := t.selectAt(p, ts)
	t.db.oracle.Release(ts)
	t.db.obs.RecordOp(start)
	return out, err
}

// selectAt is the scan of Select and OpenCursor at statement snapshot ts.
func (t *RCTx) selectAt(p predicate.P, ts mv.TS) ([]data.Tuple, error) {
	out := overlay(p, t.db.store.SelectAt(p, ts), t.writes, t.order)
	t.db.rec.RecordPredRead(t.id, p)
	if kr, ok := p.(predicate.KeyRange); ok && t.db.rec.Enabled() {
		rr := RangeRead{Slot: 2*int64(ts) + 1, Lo: kr.Lo, Hi: kr.Hi}
		for _, tp := range out {
			rr.Keys = append(rr.Keys, tp.Key)
			rr.Vals = append(rr.Vals, tp.Row.Val())
		}
		t.rangeReads = append(t.rangeReads, rr)
	}
	return out, nil
}

// RangeReads exports the recorded key-range scans for certification.
func (t *RCTx) RangeReads() []RangeRead { return t.rangeReads }

// OpenCursor implements engine.Tx: "The members of a cursor set are as of
// the time of the Open Cursor" — the cursor pins the statement snapshot of
// its open, and keeps it registered until Close or the end of the
// transaction: UpdateCurrent compares LatestCommitTS against it, and a
// row deleted after the open must still be there to compare — a reclaimed
// tombstone chain reads as 0, "never changed".
func (t *RCTx) OpenCursor(p predicate.P) (engine.Cursor, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	ts := t.statementTS()
	tuples, err := t.selectAt(p, ts)
	if err != nil {
		t.db.oracle.Release(ts)
		return nil, err
	}
	c := &rcCursor{tx: t, snapTS: ts, tuples: tuples, pos: -1}
	t.cursors = append(t.cursors, c)
	return c, nil
}

// closeCursors ends the registrations of the cursors still open when the
// transaction terminates.
func (t *RCTx) closeCursors() {
	for _, c := range t.cursors {
		_ = c.Close()
	}
	t.cursors = nil
}

type rcCursor struct {
	tx     *RCTx
	snapTS mv.TS
	tuples []data.Tuple
	pos    int
	closed bool
}

func (c *rcCursor) Fetch() (data.Tuple, error) {
	if c.closed || c.tx.done {
		return data.Tuple{}, engine.ErrTxDone
	}
	c.pos++
	if c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNotFound
	}
	cur := c.tuples[c.pos]
	op := history.Op{Tx: c.tx.id, Kind: history.ReadCursor, Item: cur.Key, Version: -1}.WithValue(cur.Row.Val())
	c.tx.reads = append(c.tx.reads, TimedRead{TS: c.snapTS, Op: op})
	c.tx.db.rec.Record(op)
	return cur, nil
}

func (c *rcCursor) Current() (data.Tuple, error) {
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNoCursor
	}
	return c.tuples[c.pos], nil
}

// UpdateCurrent write-locks the row, then re-checks it against the cursor
// snapshot: if another transaction committed a change to this row after
// the cursor opened, the update fails with ErrRowChanged (Oracle's write
// consistency restart, surfaced as an error). This is what makes P4C "Not
// Possible" at Read Consistency while plain P4 remains possible.
func (c *rcCursor) UpdateCurrent(row data.Row) error {
	if c.closed || c.tx.done {
		return engine.ErrTxDone
	}
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return engine.ErrNoCursor
	}
	key := c.tuples[c.pos].Key
	t := c.tx
	var before data.Row
	if v, ok, _ := t.db.readCommitted(key); ok {
		before = v.Row
	}
	if err := t.db.lm.AcquireItem(lock.TxID(t.id), key, lock.X, lock.Images{Before: before, After: row}); err != nil {
		return t.lockErr(err)
	}
	if ts := t.db.store.LatestCommitTS(key); ts > c.snapTS {
		t.db.lm.ReleaseItem(lock.TxID(t.id), key)
		return fmt.Errorf("%w: %s committed at ts %d after cursor snapshot %d", engine.ErrRowChanged, key, ts, c.snapTS)
	}
	if _, ok := t.writes[key]; !ok {
		t.order = append(t.order, key)
	}
	t.writes[key] = row
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.WriteCursor, Item: key, Version: -1}.WithValue(row.Val()))
	return nil
}

// Close ends the cursor and the registration of its snapshot.
func (c *rcCursor) Close() error {
	if !c.closed {
		c.closed = true
		c.tx.db.oracle.Release(c.snapTS)
	}
	return nil
}

// Commit implements engine.Tx: install versions at a fresh commit
// timestamp under the write set's store stripe latches, then release
// locks. The long write locks — held until after Install — guarantee two
// RC commits writing the same key never overlap; the stripe latches
// additionally fence the install against concurrent Snapshot Isolation
// validate+install critical sections on the shared store (SI transactions
// take no write locks, so the locks alone would not order an RC install
// against an SI validation of the same key). The oracle watermark keeps
// in-flight installs invisible to readers.
func (t *RCTx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	t.done = true
	t.closeCursors()
	if len(t.writes) > 0 {
		stripes := t.db.store.LockWriteSet(t.order, t.stripesBuf[:0])
		// As in SITx.Commit, install waits for the watermark: the next
		// statement snapshot must contain this commit, or a
		// read-modify-write that follows overwrites it from a stale read —
		// a lost update inside one session.
		t.commitTS = t.db.install(t.id, t.writes, stripes)
	} else {
		t.commitTS = t.db.oracle.Safe()
	}
	t.committed = true
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Commit, Version: -1})
	t.db.obs.Commit(t.id)
	t.db.lm.ReleaseAll(lock.TxID(t.id))
	t.db.obs.RecordCommitLatency(start)
	return nil
}

// SVTrace exports the transaction's execution for the statement-level
// single-valued mapping: each read op with the statement snapshot it
// executed at, plus the write set with its commit timestamp. Valid after
// the transaction terminated.
//
// A statement at snapshot s sees exactly the versions committed at
// timestamps <= s, so (as in SITx's MVTxn export) commits map to even
// slots (2*ts) and statement reads to the odd slot just above their
// snapshot (2*ts+1).
func (t *RCTx) SVTrace() (committed bool, commitSlot int64, reads []TimedRead, writes history.History) {
	committed = t.committed
	commitSlot = 2 * int64(t.commitTS)
	reads = make([]TimedRead, len(t.reads))
	for i, r := range t.reads {
		r.TS = mv.TS(2*int64(r.TS) + 1)
		reads[i] = r
	}
	if committed && len(t.order) == 0 && len(reads) > 0 {
		// Read-only transactions commit "at" their last statement snapshot;
		// pinning the commit to that read's slot (callers order same-slot
		// events by emission) keeps the mapped history well-formed, with the
		// commit after the transaction's own reads.
		commitSlot = int64(reads[len(reads)-1].TS)
	}
	for _, key := range t.order {
		op := history.Op{Tx: t.id, Kind: history.Write, Item: key, Version: -1}
		if row := t.writes[key]; row != nil {
			op = op.WithValue(row.Val())
		} else {
			op.Kind = history.Delete
		}
		writes = append(writes, op)
	}
	return committed, commitSlot, reads, writes
}

// Abort implements engine.Tx: drop buffered writes, release locks. No undo
// needed — versions were never installed.
func (t *RCTx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.done = true
	t.closeCursors()
	t.writes = nil
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Abort, Version: -1})
	t.db.obs.Abort(t.id)
	t.db.lm.ReleaseAll(lock.TxID(t.id))
	return nil
}
