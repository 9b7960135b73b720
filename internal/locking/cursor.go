package locking

import (
	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/predicate"
)

// Cursor is a SQL-style cursor over the rows matching a predicate (§4.1).
// At Cursor Stability the Shared lock on the current row is held until the
// cursor moves or closes; if the transaction updates the row through the
// cursor, the upgraded Exclusive lock persists to commit even after the
// cursor moves on — exactly the paper's description.
type Cursor struct {
	tx     *Tx
	pred   predicate.P
	keys   []data.Key
	pos    int // index into keys of current row; -1 before first fetch
	curKey data.Key
	holds  bool // currently holding the while-current lock
	closed bool
}

var _ engine.Cursor = (*Cursor)(nil)

// OpenCursor implements engine.Tx. The scan guard — predicate lock or
// key-range lock, per the engine's phantom protocol — follows the
// protocol's predicate read duration (short at CS: the membership of the
// cursor set is evaluated once, under a short guard).
func (t *Tx) OpenCursor(p predicate.P) (engine.Cursor, error) {
	if err := t.live(); err != nil {
		return nil, err
	}
	g, err := t.acquireScanGuard(p)
	if err != nil {
		return nil, err
	}
	matches := t.db.store.Select(p)
	keys := make([]data.Key, len(matches))
	for i, m := range matches {
		keys[i] = m.Key
	}
	g.releaseShort()
	return &Cursor{tx: t, pred: p, keys: keys, pos: -1}, nil
}

// Fetch implements engine.Cursor: release the previous current-row lock
// (while-current duration only — a row the transaction wrote keeps its
// Exclusive lock via reference counting), advance, lock the new current
// row per the protocol.
func (c *Cursor) Fetch() (data.Tuple, error) {
	if err := c.usable(); err != nil {
		return data.Tuple{}, err
	}
	c.releaseCurrent()
	for {
		c.pos++
		if c.pos >= len(c.keys) {
			return data.Tuple{}, engine.ErrNotFound
		}
		key := c.keys[c.pos]
		if c.tx.proto.CursorRead != DurNone {
			if err := c.tx.db.lm.AcquireItem(lock.TxID(c.tx.id), key, lock.S, lock.Images{Before: c.tx.db.store.Get(key)}); err != nil {
				return data.Tuple{}, c.tx.lockErr(err)
			}
			c.holds = c.tx.proto.CursorRead == DurCursor
		}
		c.curKey = key
		row := c.tx.db.store.Get(key)
		if c.tx.proto.CursorRead == DurShort {
			c.tx.db.lm.ReleaseItem(lock.TxID(c.tx.id), key)
		}
		if row == nil {
			// Row deleted since the cursor set was built: skip it.
			c.releaseCurrent()
			continue
		}
		c.tx.db.rec.Record(cursorReadOp(c.tx.id, key, row))
		return data.Tuple{Key: key, Row: row}, nil
	}
}

// Current implements engine.Cursor.
func (c *Cursor) Current() (data.Tuple, error) {
	if err := c.usable(); err != nil {
		return data.Tuple{}, err
	}
	if c.pos < 0 || c.pos >= len(c.keys) {
		return data.Tuple{}, engine.ErrNoCursor
	}
	row := c.tx.db.store.Get(c.curKey)
	if row == nil {
		return data.Tuple{}, engine.ErrNotFound
	}
	return data.Tuple{Key: c.curKey, Row: row}, nil
}

// UpdateCurrent implements engine.Cursor: upgrade to a long Exclusive lock
// on the current row and write through it ("the Fetching transaction can
// update the row, and in that case a write lock will be held on the row
// until the transaction commits, even after the cursor moves on").
func (c *Cursor) UpdateCurrent(row data.Row) error {
	if err := c.usable(); err != nil {
		return err
	}
	if c.pos < 0 || c.pos >= len(c.keys) {
		return engine.ErrNoCursor
	}
	t := c.tx
	// lockForWrite, not a bare item lock: if another transaction deleted
	// the row under the cursor, this write re-creates it — an insert that
	// the keyrange protocol must route through the covering gap lock.
	if err := t.lockForWrite(c.curKey, row); err != nil {
		return t.lockErr(err)
	}
	before := t.db.store.Put(c.curKey, row)
	t.undo.Note(c.curKey, before)
	t.db.rec.Record(cursorWriteOp(t.id, c.curKey, row))
	// The while-current reference is now subsumed by the X hold: when the
	// cursor moves it will release one reference, leaving the write lock in
	// place until commit.
	return nil
}

// Close implements engine.Cursor.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.releaseCurrent()
	c.closed = true
	return nil
}

// usable is the check every cursor op but Close runs first: ErrTxDone on a
// closed cursor, else the transaction's own liveness (a deadlock victim's
// cursor refuses like every other op of the victim).
func (c *Cursor) usable() error {
	if c.closed {
		return engine.ErrTxDone
	}
	return c.tx.live()
}

func (c *Cursor) releaseCurrent() {
	if c.holds {
		c.tx.db.lm.ReleaseItem(lock.TxID(c.tx.id), c.curKey)
		c.holds = false
	}
}

// --- history.Op constructors used by the recorder. ---

func readOp(tx int, key data.Key, row data.Row) history.Op {
	op := history.Op{Tx: tx, Kind: history.Read, Item: key, Version: -1}
	if row != nil {
		op.Value, op.HasValue = row.Val(), true
	}
	return op
}

func cursorReadOp(tx int, key data.Key, row data.Row) history.Op {
	op := history.Op{Tx: tx, Kind: history.ReadCursor, Item: key, Version: -1}
	if row != nil {
		op.Value, op.HasValue = row.Val(), true
	}
	return op
}

func cursorWriteOp(tx int, key data.Key, row data.Row) history.Op {
	op := history.Op{Tx: tx, Kind: history.WriteCursor, Item: key, Version: -1}
	if row != nil {
		op.Value, op.HasValue = row.Val(), true
	}
	return op
}

func historyOp(tx int, commit bool) history.Op {
	kind := history.Abort
	if commit {
		kind = history.Commit
	}
	return history.Op{Tx: tx, Kind: kind, Version: -1}
}
