package mvcc

// Multiversion transactions. A Tx carries its level, and the levels differ
// where the paper says they do (the package comment lists the places).
//
// SNAPSHOT ISOLATION (§4.2): each transaction reads from a snapshot of the
// committed data as of its Start-Timestamp, its own writes overlaid; "a
// transaction running in Snapshot Isolation is never blocked attempting a
// read". It commits only if no transaction with a Commit-Timestamp inside
// its execution interval [Start-TS, Commit-TS] wrote data it also wrote —
// First-Committer-Wins, which prevents Lost Updates (P4).
//
// Oracle READ CONSISTENCY (§4.3) "gives each SQL statement the most recent
// committed database value at the time the statement began": "it is as if
// the start-timestamp of the transaction is advanced at each SQL
// statement". "Row inserts, updates, and deletes are covered by Write locks
// to give a first-writer-wins rather than a first-committer-wins policy":
// a write blocks, rather than aborts, on conflict. "The members of a cursor
// set are as of the time of the Open Cursor", and a cursor update
// re-checks its row against that snapshot, so cursor lost updates (P4C)
// cannot occur, while P4, fuzzy reads (P2), phantoms (P3) and read skew
// (A5A) remain possible.
//
// The implementation follows Reed's multiversion scheme [REE] as the paper
// suggests: committed version chains in the shared mv.Store, private write
// sets, and a short striped commit critical section.

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

// Tx is a SNAPSHOT ISOLATION or READ CONSISTENCY transaction.
type Tx struct {
	db     *DB
	id     int
	level  engine.Level
	start  mv.TS                 // SI: the registered Start-Timestamp
	writes map[data.Key]data.Row // nil row = delete; the rows Put was given, installed as they are
	order  []data.Key            // write order, for deterministic install
	done   bool

	// reads and rangeReads record each item read and key-range scan with
	// the snapshot it executed at, and commitTS/committed the outcome, for
	// the MV→SV export (Trace).
	reads      []readRecord
	rangeReads []RangeRead
	commitTS   mv.TS
	committed  bool

	// cursors are the RC cursors still open; each holds its snapshot
	// registered until it is closed, at the end of the transaction at the
	// latest.
	cursors []*cursor

	// Inline backing for order and reads, and the stripe list of Commit's
	// write-set latches: a transaction of a few statements appends to them
	// without growing.
	orderBuf   [2]data.Key
	readsBuf   [2]readRecord
	stripesBuf [2]int
}

type readRecord struct {
	ts     mv.TS // the snapshot read at
	key    data.Key
	val    int64
	found  bool
	cursor bool // read through a cursor Fetch
}

// RangeRead is one recorded key-range scan: the scanned interval, the
// result set (own-write overlay included), and the single-valued slot of
// the snapshot it evaluated against — 2*snapshotTS+1, the same odd-slot
// convention Trace uses for item reads. The fuzz harness certifies each
// result set against the newest committed state below the slot across the
// whole interval, which is the absent-row generalization of the per-item
// snapshot-read check.
type RangeRead struct {
	Slot   int64
	Lo, Hi data.Key
	Keys   []data.Key
	Vals   []int64
}

var _ engine.Tx = (*Tx)(nil)

// begin starts a transaction at level. An SI start is registered with the
// oracle by the caller; the transaction releases it when it terminates.
func (db *DB) begin(level engine.Level, start mv.TS) *Tx {
	id := int(db.seq.Add(1))
	db.obs.Begin(id, level.Code())
	t := &Tx{db: db, id: id, level: level, start: start, writes: map[data.Key]data.Row{}}
	t.order, t.reads = t.orderBuf[:0], t.readsBuf[:0]
	return t
}

// ID implements engine.Tx.
func (t *Tx) ID() int { return t.id }

// Level implements engine.Tx.
func (t *Tx) Level() engine.Level { return t.level }

func (t *Tx) si() bool { return t.level == engine.SnapshotIsolation }

// snapshot returns the timestamp a statement reads at: SI's Start-Timestamp,
// or at RC a fresh statement-level snapshot — the installed watermark, so a
// statement never sees a torn concurrent commit — registered until release.
// A statement releases it after its last store access: unregistered, a
// commit in between could forget the version visible there, and the read
// would report a live row missing.
func (t *Tx) snapshot() mv.TS {
	if t.si() {
		return t.start
	}
	return t.db.oracle.Acquire()
}

// release ends the registration snapshot took; SI's start stays registered
// until finish.
func (t *Tx) release(ts mv.TS) {
	if !t.si() {
		t.db.oracle.Release(ts)
	}
}

// read reads key's committed version at a statement's snapshot.
func (t *Tx) read(key data.Key) (v mv.Version, ok bool, ts mv.TS) {
	ts = t.snapshot()
	defer t.release(ts)
	v, ok = t.db.store.ReadAt(key, ts)
	return v, ok, ts
}

// Get implements engine.Tx: own writes first, then the snapshot. Never
// blocks.
func (t *Tx) Get(key data.Key) (data.Row, error) {
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
	v, ok, ts := t.read(key)
	op := history.Op{Tx: t.id, Kind: history.Read, Item: key, Version: -1}
	r := readRecord{ts: ts, key: key}
	if ok {
		op = op.WithValue(v.Row.Val())
		r.val, r.found = op.Value, true
	}
	t.reads = append(t.reads, r)
	t.db.rec.Record(op)
	t.db.obs.RecordOp(start)
	if !ok {
		return nil, engine.ErrNotFound
	}
	return v.Row, nil
}

// Delete implements engine.Tx: a Put of no row.
func (t *Tx) Delete(key data.Key) error { return t.Put(key, nil) }

// Put implements engine.Tx: buffer the write privately; that row is the
// version Commit installs. At RC the write first takes a long write lock
// (first-writer-wins: block, don't abort).
func (t *Tx) Put(key data.Key, row data.Row) error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	before := t.before(key)
	if !t.si() {
		if err := t.lockX(key, before, row); err != nil {
			t.db.obs.RecordOp(start)
			return err
		}
	}
	t.buffer(key, row)
	t.db.rec.RecordWrite(t.id, key, before, row)
	t.db.obs.RecordOp(start)
	return nil
}

// before is key's committed row at a statement's snapshot: a write's
// before-image.
func (t *Tx) before(key data.Key) data.Row {
	if v, ok, _ := t.read(key); ok {
		return v.Row
	}
	return nil
}

// lockX takes RC's long write lock on key.
func (t *Tx) lockX(key data.Key, before, after data.Row) error {
	err := t.db.lm.AcquireItem(lock.TxID(t.id), key, lock.X, lock.Images{Before: before, After: after})
	if errors.Is(err, lock.ErrDeadlock) {
		return fmt.Errorf("%w (T%d)", engine.ErrDeadlock, t.id)
	}
	return err
}

// buffer adds a write to the private write set.
func (t *Tx) buffer(key data.Key, row data.Row) {
	if _, ok := t.writes[key]; !ok {
		t.order = append(t.order, key)
	}
	t.writes[key] = row
}

// Select implements engine.Tx: scan a statement's snapshot, overlay own
// writes. At SI "each transaction never sees the updates of concurrent
// transactions" — so a re-evaluation always returns the same set (no A3
// phantoms, Remark 10) even though P3 constraint phantoms remain possible.
// At RC two Selects may see different committed states — the
// P2/P3-permitting behavior of §4.3.
func (t *Tx) Select(p predicate.P) ([]data.Tuple, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	start := t.db.obs.Now()
	ts := t.snapshot()
	out := t.selectAt(p, ts)
	t.release(ts)
	t.db.obs.RecordOp(start)
	return out, nil
}

// selectAt is the scan of Select and OpenCursor at snapshot ts.
func (t *Tx) selectAt(p predicate.P, ts mv.TS) []data.Tuple {
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
	return out
}

// OpenCursor implements engine.Tx: "The members of a cursor set are as of
// the time of the Open Cursor". An SI cursor reads the transaction's
// snapshot, which never moves. An RC cursor pins the statement snapshot of
// its open and keeps it registered until Close or the end of the
// transaction: UpdateCurrent compares LatestCommitTS against it, and a row
// deleted after the open must still be there to compare — a reclaimed
// tombstone chain reads as 0, "never changed".
func (t *Tx) OpenCursor(p predicate.P) (engine.Cursor, error) {
	if t.done {
		return nil, engine.ErrTxDone
	}
	start := t.db.obs.Now()
	ts := t.snapshot()
	c := &cursor{tx: t, ts: ts, tuples: t.selectAt(p, ts), pos: -1}
	if !t.si() {
		t.cursors = append(t.cursors, c)
	}
	t.db.obs.RecordOp(start)
	return c, nil
}

// cursor iterates over the result set of its open, at the snapshot ts.
type cursor struct {
	tx     *Tx
	ts     mv.TS
	tuples []data.Tuple
	pos    int
	closed bool
}

// usable is the check every cursor op but Close runs first: ErrTxDone on a
// closed cursor or a terminated transaction.
func (c *cursor) usable() error {
	if c.closed || c.tx.done {
		return engine.ErrTxDone
	}
	return nil
}

func (c *cursor) Fetch() (data.Tuple, error) {
	if err := c.usable(); err != nil {
		return data.Tuple{}, err
	}
	c.pos++
	if c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNotFound
	}
	cur := c.tuples[c.pos]
	t := c.tx
	t.reads = append(t.reads, readRecord{ts: c.ts, key: cur.Key, val: cur.Row.Val(), found: true, cursor: true})
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.ReadCursor, Item: cur.Key, Version: -1}.WithValue(cur.Row.Val()))
	return cur, nil
}

func (c *cursor) Current() (data.Tuple, error) {
	if err := c.usable(); err != nil {
		return data.Tuple{}, err
	}
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return data.Tuple{}, engine.ErrNoCursor
	}
	return c.tuples[c.pos], nil
}

// UpdateCurrent writes the current row. At SI it is a buffered Put. At RC
// it write-locks the row, then re-checks it against the cursor snapshot:
// if another transaction committed a change to this row after the cursor
// opened, the update fails with ErrRowChanged (Oracle's write consistency
// restart, surfaced as an error). This is what makes P4C "Not Possible" at
// Read Consistency while plain P4 remains possible.
func (c *cursor) UpdateCurrent(row data.Row) error {
	if err := c.usable(); err != nil {
		return err
	}
	if c.pos < 0 || c.pos >= len(c.tuples) {
		return engine.ErrNoCursor
	}
	t, key := c.tx, c.tuples[c.pos].Key
	if t.si() {
		return t.Put(key, row)
	}
	if err := t.lockX(key, t.before(key), row); err != nil {
		return err
	}
	if ts := t.db.store.LatestCommitTS(key); ts > c.ts {
		t.db.lm.ReleaseItem(lock.TxID(t.id), key)
		return fmt.Errorf("%w: %s committed at ts %d after cursor snapshot %d", engine.ErrRowChanged, key, ts, c.ts)
	}
	t.buffer(key, row)
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.WriteCursor, Item: key, Version: -1}.WithValue(row.Val()))
	return nil
}

// Close ends the cursor and the registration of an RC cursor's snapshot.
func (c *cursor) Close() error {
	if !c.closed {
		c.closed = true
		c.tx.release(c.ts)
	}
	return nil
}

// Commit implements engine.Tx: install the write set at a fresh commit
// timestamp under its store stripe latches. SI first validates
// First-Committer-Wins under those latches. RC's long write locks, held
// until after the install, keep two RC commits of one key from
// overlapping; the stripe latches also fence an RC install against a
// concurrent SI validate+install of the same key (SI takes no write locks,
// so the locks alone would not order them). The oracle watermark keeps
// in-flight installs invisible to readers.
func (t *Tx) Commit() error {
	if t.done {
		return engine.ErrTxDone
	}
	start := t.db.obs.Now()
	if !t.si() {
		t.finish()
	}
	if len(t.order) > 0 {
		// Latch only the stripes the write set covers: disjoint-stripe
		// committers run this whole critical section in parallel, same-key
		// committers serialize here.
		stripes := t.db.store.LockWriteSet(t.order, t.stripesBuf[:0])
		if t.si() {
			if err := t.validate(stripes); err != nil {
				t.finish()
				t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Abort, Version: -1})
				t.db.obs.Abort(t.id)
				t.db.obs.RecordCommitLatency(start)
				return err
			}
		}
		// install returns only once the watermark has passed ts: the
		// session's next snapshot then contains this commit. It reads its
		// own writes, an SI rewrite of the same keys does not fail
		// first-committer-wins against itself, and an RC read-modify-write
		// that follows does not overwrite it from a stale read — a lost
		// update inside one session.
		t.commitTS = t.db.install(t.id, t.writes, stripes)
	} else if !t.si() {
		// A read-only RC transaction commits at the watermark; a read-only
		// SI one always commits, at its snapshot (see Trace).
		t.commitTS = t.db.oracle.Safe()
	}
	if t.si() {
		t.finish()
	}
	t.committed = true
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Commit, Version: -1})
	t.db.obs.Commit(t.id)
	if !t.si() {
		t.db.lm.ReleaseAll(lock.TxID(t.id))
	}
	t.db.obs.RecordCommitLatency(start)
	return nil
}

// validate is First-Committer-Wins: no key in the write set may have a
// committed version newer than the snapshot ("wrote data that T1 also
// wrote"). RC commits install under the same stripe latches, so a
// concurrent first-writer-wins commit can never slip a version past this
// check. On a conflict it releases the latches.
func (t *Tx) validate(stripes []int) error {
	for _, key := range t.order {
		if ts := t.db.store.LatestCommitTS(key); ts > t.start {
			t.db.store.UnlockWriteSet(stripes)
			return fmt.Errorf("%w: %s committed at ts %d inside execution interval (start %d)",
				engine.ErrWriteConflict, key, ts, t.start)
		}
	}
	return nil
}

// Abort implements engine.Tx: drop the private write set; at RC release
// the write locks. No undo needed — versions were never installed.
func (t *Tx) Abort() error {
	if t.done {
		return engine.ErrTxDone
	}
	t.finish()
	t.writes = nil
	t.db.rec.Record(history.Op{Tx: t.id, Kind: history.Abort, Version: -1})
	t.db.obs.Abort(t.id)
	if !t.si() {
		t.db.lm.ReleaseAll(lock.TxID(t.id))
	}
	return nil
}

// finish is the done transition, taken exactly once on every way out. It
// ends the registrations the transaction holds: SI's start and RC's open
// cursors. SI comes here after first-committer-wins validation, which
// compares LatestCommitTS against t.start and would take a reclaimed
// tombstone chain (it reads as 0) for a key nobody deleted.
func (t *Tx) finish() {
	t.done = true
	if t.si() {
		t.db.oracle.Release(t.start)
	}
	for _, c := range t.cursors {
		_ = c.Close()
	}
	t.cursors = nil
}

// Trace is a terminated transaction's execution in the slot convention of
// the paper's MV→SV mapping (§4.2): a commit at timestamp ts sits at the
// even slot 2*ts and a read at snapshot ts at the odd slot just above it,
// 2*ts+1, so a read sees exactly the commits in the slots below its own.
type Trace struct {
	Committed bool
	// Start is the slot of an SI transaction's Start-Timestamp.
	Start int64
	// End is the slot of the commit or abort. A transaction that installed
	// nothing ends at its last snapshot, after its reads (callers order
	// same-slot events by emission): SI at its start, RC at its last read.
	End int64
	// Reads are the item reads and cursor fetches in program order; Slots[i]
	// is the slot of Reads[i].
	Reads history.History
	Slots []int64
	// Writes is the write set in write order, a removed row as a Delete.
	Writes history.History
	// Ranges are the key-range scans, for the range-read certification.
	Ranges []RangeRead
}

// Trace exports the transaction's execution for the MV→SV mapping. Valid
// after the transaction terminated.
func (t *Tx) Trace() Trace {
	tr := Trace{Committed: t.committed, Start: 2*int64(t.start) + 1, End: 2 * int64(t.commitTS), Ranges: t.rangeReads}
	for _, r := range t.reads {
		op := history.Op{Tx: t.id, Kind: history.Read, Item: r.key, Version: -1}
		if r.cursor {
			op.Kind = history.ReadCursor
		}
		if r.found {
			op = op.WithValue(r.val)
		}
		tr.Reads = append(tr.Reads, op)
		tr.Slots = append(tr.Slots, 2*int64(r.ts)+1)
	}
	if !t.committed || len(t.order) == 0 {
		switch {
		case t.si():
			tr.End = tr.Start
		case len(tr.Slots) > 0:
			tr.End = tr.Slots[len(tr.Slots)-1]
		}
	}
	for _, key := range t.order {
		op := history.Op{Tx: t.id, Kind: history.Write, Item: key, Version: -1}
		if row := t.writes[key]; row != nil {
			op = op.WithValue(row.Val())
		} else {
			op.Kind = history.Delete
		}
		tr.Writes = append(tr.Writes, op)
	}
	return tr
}
