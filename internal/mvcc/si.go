package mvcc

// Snapshot Isolation transactions, exactly as defined in the paper's §4.2:
//
//   - Each transaction reads from a snapshot of the committed data as of
//     its Start-Timestamp; its own writes overlay the snapshot ("to be read
//     again if the transaction accesses the data a second time").
//   - Reads never block and are never blocked ("A transaction running in
//     Snapshot Isolation is never blocked attempting a read").
//   - At commit the transaction receives a Commit-Timestamp larger than any
//     existing Start- or Commit-Timestamp and commits only if no other
//     transaction with a Commit-Timestamp inside its execution interval
//     [Start-TS, Commit-TS] wrote data it also wrote — First-Committer-Wins,
//     which prevents Lost Updates (P4).
//
// The implementation follows Reed's multiversion scheme [REE] as the paper
// suggests: committed version chains in the shared mv.Store, private write
// sets, and a short striped commit critical section for validation +
// install (see the package comment for how it fences against concurrent
// Read Consistency installs).

import (
	"fmt"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/mv"
	"isolevel/internal/predicate"
)

// SITx is a Snapshot Isolation transaction.
type SITx struct {
	db     *DB
	id     int
	start  mv.TS
	writes map[data.Key]data.Row // nil row = delete; the rows Put was given, installed as they are
	order  []data.Key            // write order, for deterministic install
	done   bool

	// reads records each snapshot read for the MV-history export (MVTxn).
	reads []readRecord
	// rangeReads records each key-range scan's result set for the
	// harness's range-read certification (RangeReads).
	rangeReads []RangeRead
	// commitTS is set on successful commit (for MV-history export).
	commitTS  mv.TS
	committed bool

	// Inline backing for order and reads, and the stripe list of Commit's
	// write-set latches: a transaction of a few statements appends to them
	// without growing.
	orderBuf   [2]data.Key
	readsBuf   [2]readRecord
	stripesBuf [2]int
}

type readRecord struct {
	key    data.Key
	val    int64
	found  bool
	cursor bool // read through a cursor Fetch (rc in the MV export)
}

// RangeRead is one recorded key-range scan: the scanned interval, the
// result set (own-write overlay included), and the single-valued slot of
// the snapshot it evaluated against — 2*snapshotTS+1, the same odd-slot
// convention the MV→SV mapping uses for item reads. The fuzz harness
// certifies each result set against the newest committed state below the
// slot across the whole interval, which is the absent-row generalization
// of the per-item snapshot-read check.
type RangeRead struct {
	Slot   int64
	Lo, Hi data.Key
	Keys   []data.Key
	Vals   []int64
}

var _ engine.Tx = (*SITx)(nil)

// ID implements engine.Tx.
func (t *SITx) ID() int { return t.id }

// Level implements engine.Tx.
func (t *SITx) Level() engine.Level { return engine.SnapshotIsolation }

// StartTS returns the transaction's snapshot timestamp.
func (t *SITx) StartTS() mv.TS { return t.start }

// Get implements engine.Tx: own writes first, then the snapshot. Never
// blocks.
func (t *SITx) Get(key data.Key) (data.Row, error) {
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
	v, ok := t.db.store.ReadAt(key, t.start)
	if !ok {
		t.reads = append(t.reads, readRecord{key: key})
		t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1})
		t.db.obs.RecordOp(start)
		return nil, engine.ErrNotFound
	}
	t.reads = append(t.reads, readRecord{key: key, val: v.Row.Val(), found: true})
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1}.WithValue(v.Row.Val()))
	t.db.obs.RecordOp(start)
	return v.Row, nil
}

// Delete implements engine.Tx: a Put of no row.
func (t *SITx) Delete(key data.Key) error {
	return t.Put(key, nil)
}

// Put implements engine.Tx: buffer the write privately; that row is the
// version Commit installs.
func (t *SITx) Put(key data.Key, row data.Row) error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	if _, ok := t.writes[key]; !ok {
		t.order = append(t.order, key)
	}
	t.writes[key] = row
	var before data.Row
	if v, ok := t.db.store.ReadAt(key, t.start); ok {
		before = v.Row
	}
	t.db.rec.RecordWrite(t.id, key, before, row)
	t.db.obs.RecordOp(start)
	return nil
}

// Select implements engine.Tx: scan the snapshot, overlay own writes.
// "Each transaction never sees the updates of concurrent transactions" —
// so a re-evaluation always returns the same set (no A3 phantoms, Remark
// 10) even though P3 constraint phantoms remain possible.
func (t *SITx) Select(p predicate.P) ([]data.Tuple, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	start := t.db.obs.Now()
	out := overlay(p, t.db.store.SelectAt(p, t.start), t.writes, t.order)
	t.db.rec.RecordPredRead(t.id, p)
	if kr, ok := p.(predicate.KeyRange); ok && t.db.rec.Enabled() {
		rr := RangeRead{Slot: 2*int64(t.start) + 1, Lo: kr.Lo, Hi: kr.Hi}
		for _, tp := range out {
			rr.Keys = append(rr.Keys, tp.Key)
			rr.Vals = append(rr.Vals, tp.Row.Val())
		}
		t.rangeReads = append(t.rangeReads, rr)
	}
	t.db.obs.RecordOp(start)
	return out, nil
}

// RangeReads exports the recorded key-range scans for certification.
func (t *SITx) RangeReads() []RangeRead { return t.rangeReads }

// OpenCursor implements engine.Tx. Snapshot cursors are trivially stable
// (the snapshot never moves), so the cursor is a simple iterator over the
// Select result; UpdateCurrent is a buffered write.
func (t *SITx) OpenCursor(p predicate.P) (engine.Cursor, error) {
	tuples, err := t.Select(p)
	if err != nil {
		return nil, err
	}
	return &siCursor{tx: t, tuples: tuples, pos: -1}, nil
}

type siCursor struct {
	tx     *SITx
	tuples []data.Tuple
	pos    int
	closed bool
}

func (c *siCursor) Fetch() (data.Tuple, error) {
	if c.closed || c.tx.done {
		return data.Tuple{}, engine.ErrTxDone
	}
	c.pos++
	if c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNotFound
	}
	cur := c.tuples[c.pos]
	c.tx.reads = append(c.tx.reads, readRecord{key: cur.Key, val: cur.Row.Val(), found: true, cursor: true})
	c.tx.db.rec.Record(history.Op{Tx: c.tx.id, Kind: history.ReadCursor, Item: cur.Key, Version: -1}.WithValue(cur.Row.Val()))
	return cur, nil
}

func (c *siCursor) Current() (data.Tuple, error) {
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNoCursor
	}
	return c.tuples[c.pos], nil
}

func (c *siCursor) UpdateCurrent(row data.Row) error {
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return engine.ErrNoCursor
	}
	return c.tx.Put(c.tuples[c.pos].Key, row)
}

func (c *siCursor) Close() error { c.closed = true; return nil }

// Commit implements engine.Tx: the First-Committer-Wins critical section.
func (t *SITx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	if len(t.writes) == 0 {
		// Read-only transactions always commit, at their snapshot.
		t.finish()
		t.committed = true
		t.commitTS = t.start
		t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Commit, Version: -1})
		t.db.obs.Commit(t.id)
		t.db.obs.RecordCommitLatency(start)
		return nil
	}
	// Latch only the stripes the write set covers: disjoint-stripe
	// committers run this whole critical section in parallel, same-key
	// committers serialize here.
	stripes := t.db.store.LockWriteSet(t.order, t.stripesBuf[:0])
	// Validation: no key in the write set may have a committed version
	// newer than our snapshot ("wrote data that T1 also wrote"). RC
	// commits install under the same stripe latches, so a concurrent
	// first-writer-wins commit can never slip a version past this check.
	for _, key := range t.order {
		if ts := t.db.store.LatestCommitTS(key); ts > t.start {
			t.db.store.UnlockWriteSet(stripes)
			t.finish()
			t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Abort, Version: -1})
			t.db.obs.Abort(t.id)
			t.db.obs.RecordCommitLatency(start)
			return fmt.Errorf("%w: %s committed at ts %d inside execution interval (start %d)",
				engine.ErrWriteConflict, key, ts, t.start)
		}
	}
	// install returns only once the watermark has passed ts: the session's
	// next snapshot then contains this commit (it reads its own writes, and
	// a rewrite of the same keys does not fail first-committer-wins against
	// itself).
	ts := t.db.install(t.id, t.writes, stripes)
	t.finish()
	t.committed = true
	t.commitTS = ts
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Commit, Version: -1})
	t.db.obs.Commit(t.id)
	t.db.obs.RecordCommitLatency(start)
	return nil
}

// Abort implements engine.Tx: drop the private write set.
func (t *SITx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.finish()
	t.writes = nil
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Abort, Version: -1})
	t.db.obs.Abort(t.id)
	return nil
}

// finish is the done transition, taken exactly once on every way out:
// nothing reads the store at t.start after it, so the snapshot's
// registration ends here. It comes after first-committer-wins validation,
// which compares LatestCommitTS against t.start and would take a reclaimed
// tombstone chain (it reads as 0) for a key nobody deleted.
func (t *SITx) finish() {
	t.done = true
	t.db.oracle.Release(t.start)
}

// MVTxn exports the transaction's execution as a deps.MVTxn-shaped record
// (start/commit timestamps plus read and write ops) for the paper's MV→SV
// mapping. Valid after the transaction terminated.
//
// A snapshot at start timestamp s sees exactly the versions committed at
// timestamps <= s, so in the single-valued ordering the reads of a
// transaction with start s must come after the commit event of timestamp s
// and before the commit event of timestamp s+1: commits map to even slots
// (2*ts) and starts to the odd slot just above (2*ts+1).
func (t *SITx) MVTxn() (start, commit int64, committed bool, reads, writes history.History) {
	start = 2*int64(t.start) + 1
	commit = 2 * int64(t.commitTS)
	if t.committed && len(t.order) == 0 {
		// Read-only transactions commit at their snapshot: same slot as the
		// reads, and MapToSV's stable tie-break keeps reads before commit.
		commit = start
	}
	committed = t.committed
	for _, r := range t.reads {
		kind := history.Read
		if r.cursor {
			kind = history.ReadCursor
		}
		op := history.Op{Tx: t.id, Kind: kind, Item: r.key, Version: -1}
		if r.found {
			op = op.WithValue(r.val)
		}
		reads = append(reads, op)
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
	return start, commit, committed, reads, writes
}
