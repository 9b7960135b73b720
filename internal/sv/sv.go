// Package sv is the single-version row store used by the locking engines.
//
// Writes are applied in place — this is deliberate: at the weaker levels of
// Table 2 (Degree 0, READ UNCOMMITTED) other transactions are allowed to
// see uncommitted data, which only works if writers mutate the shared
// current state. Rollback is implemented with a before-image undo log, as
// in the paper's §3 discussion of why Dirty Writes (P0) break recovery: if
// two uncommitted transactions write the same item, restoring either's
// before-image is wrong. The store lets that corruption happen when an
// engine fails to hold long write locks — there is a test demonstrating it.
//
// The point path is striped: keys hash onto a fixed set of stripes (the
// same scheme as the lock manager's and the multiversion store's), each
// with its own RWMutex over its slice of the rows. Every stripe provides
// atomic individual actions (the paper's Degree 0 "action atomicity") and
// nothing more; every stronger guarantee comes from the lock manager above
// it. Striping matters because the store sits under the striped lock
// manager: one store latch would re-serialize the disjoint-key traffic the
// lock stripes just freed. Get, Exists and a Put over a present key touch
// only their stripe.
//
// The scan path is one ordered key index (data.OrderedSet) on the Store,
// under its own latch, holding exactly the present keys. Only a write that
// changes the key set — an insert of an absent key, a Delete, a Restore
// that creates or removes a row — takes it, before the stripe. Select
// walks one index run, the keys inside predicate.KeyBounds(p) (the whole
// index when p says nothing about keys), reading each row under its
// stripe's read latch, so a range read costs what the range holds, not
// what the table holds, and comes back in key order with no sort. Keys and
// the key-range (next-key) lock anchors (AppendRangeAnchors) read the same
// index. The index latch comes before any stripe latch (declared below
// for the latchorder analyzer), and no path takes it while holding a
// stripe: Put's insert drops its stripe latch first.
//
// # Rows
//
// A row is an immutable value (data.Row): nothing can write into it, and a
// write replaces the whole row. So the store never copies one. Load, Put
// and Restore keep the rows they are given; Get and Select hand out the
// stored rows themselves, valid for as long as the caller likes; and the
// before-images Put and Delete return are fit for an undo log or a lock's
// row images as they are. A row is shared end to end, from the caller
// that built it to every transaction that reads it.
//
//isolint:latch-order Store.idx < shard.mu
//isolint:deterministic
package sv

import (
	"sync"

	"isolevel/internal/data"
	"isolevel/internal/obs"
	"isolevel/internal/predicate"
)

// DefaultShards is the stripe count of NewStore, matching the lock
// manager's default so the engines' single shard knob means one thing.
const DefaultShards = 16

type shard struct {
	mu   sync.RWMutex
	rows map[data.Key]data.Row
}

// Store is an in-place single-version row store.
type Store struct {
	striper data.Striper
	shards  []*shard
	obs     *obs.Sink

	// idx guards index, the ordered set of every present key: what Select,
	// Keys, Len and the key-range lock anchors read. A write holds it, then
	// the key's stripe, whenever it adds a key to a stripe map or removes
	// one, so the index always holds exactly the union of the map keys.
	idx   sync.RWMutex
	index data.OrderedSet
}

// SetObs attaches an observability sink; Select records its scan latency
// there. Nil (the default) keeps the scan path free of clock reads. Must
// be set before concurrent use.
func (s *Store) SetObs(sink *obs.Sink) { s.obs = sink }

// NewStore returns an empty store with DefaultShards stripes.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards returns an empty store whose point path is striped across
// n latches (n < 1 is treated as 1). The scan path is one index whatever n.
func NewStoreShards(n int) *Store {
	striper := data.NewStriper(n)
	s := &Store{striper: striper, shards: make([]*shard, striper.Count())}
	for i := range s.shards {
		s.shards[i] = &shard{rows: map[data.Key]data.Row{}}
	}
	return s
}

// ShardCount returns the number of stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

func (s *Store) shardOf(key data.Key) *shard {
	return s.shards[s.striper.Index(key)]
}

// Load bulk-inserts rows (setup helper; no locking protocol involved).
func (s *Store) Load(tuples ...data.Tuple) {
	s.idx.Lock()
	for _, t := range tuples {
		sh := s.shardOf(t.Key)
		sh.mu.Lock()
		sh.rows[t.Key] = t.Row
		sh.mu.Unlock()
		s.index.Insert(t.Key)
	}
	s.idx.Unlock()
}

// Get returns the current row, or nil if absent.
func (s *Store) Get(key data.Key) data.Row {
	sh := s.shardOf(key)
	sh.mu.RLock()
	row := sh.rows[key]
	sh.mu.RUnlock()
	return row
}

// Exists reports whether a row is present.
func (s *Store) Exists(key data.Key) bool {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.rows[key]
	return ok
}

// Put installs row (insert or update) and returns the before-image (nil
// for an insert). An update touches only the key's stripe. An insert
// changes the key set, so it drops the stripe latch, takes the index latch
// and the stripe again in that order, and looks again: a racing writer
// may have inserted the key in between, and then the before-image is that
// writer's row.
func (s *Store) Put(key data.Key, row data.Row) (before data.Row) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	before, present := sh.rows[key]
	if present {
		sh.rows[key] = row
		sh.mu.Unlock()
		return before
	}
	sh.mu.Unlock()
	s.idx.Lock()
	sh.mu.Lock()
	before, present = sh.rows[key]
	sh.rows[key] = row
	sh.mu.Unlock()
	if !present {
		s.index.Insert(key)
	}
	s.idx.Unlock()
	return before
}

// Delete removes the row and returns the before-image (nil if it was
// already absent).
func (s *Store) Delete(key data.Key) (before data.Row) {
	sh := s.shardOf(key)
	s.idx.Lock()
	sh.mu.Lock()
	before = sh.rows[key]
	delete(sh.rows, key)
	sh.mu.Unlock()
	s.index.Delete(key)
	s.idx.Unlock()
	return before
}

// Restore writes a before-image back (undo): nil removes the row. Writing
// over a present row touches only its stripe; creating or removing a row
// takes the index latch first, as Put's insert does.
func (s *Store) Restore(key data.Key, before data.Row) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if _, present := sh.rows[key]; present && before != nil {
		sh.rows[key] = before
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	s.idx.Lock()
	sh.mu.Lock()
	if before == nil {
		delete(sh.rows, key)
		sh.mu.Unlock()
		s.index.Delete(key)
	} else {
		sh.rows[key] = before
		sh.mu.Unlock()
		s.index.Insert(key)
	}
	s.idx.Unlock()
}

// Select returns all tuples satisfying p, sorted by key. Under the index's
// read latch it walks the one index run inside predicate.KeyBounds(p) —
// the whole index when p says nothing about keys — reading each row under
// its stripe's read latch and matching it in place; the run is ascending,
// so the result is too. The key set cannot change during the walk, but
// each row is read on its own; as everywhere in this store, a scan that
// must not see a concurrent writer's half-done work holds a lock above it.
func (s *Store) Select(p predicate.P) []data.Tuple {
	start := s.obs.Now()
	lo, hi, bounded := predicate.KeyBounds(p)
	s.idx.RLock()
	run := s.index.View(lo, hi, bounded)
	var out []data.Tuple
	if bounded && len(run) > 0 {
		// A key-bounded run is what the predicate can cover: size the
		// result once. An unbounded one is the whole table, which a value
		// predicate may mostly reject.
		out = make([]data.Tuple, 0, len(run))
	}
	for _, k := range run {
		sh := s.shardOf(k)
		sh.mu.RLock()
		t := data.Tuple{Key: k, Row: sh.rows[k]}
		sh.mu.RUnlock()
		if p.Match(t) {
			out = append(out, t)
		}
	}
	s.idx.RUnlock()
	s.obs.RecordScan(start)
	return out
}

// Keys returns all present keys, sorted.
func (s *Store) Keys() []data.Key {
	s.idx.RLock()
	defer s.idx.RUnlock()
	return s.index.Range("", "", false)
}

// AppendRangeAnchors appends the anchor set of a key-range scan over
// [lo, hi) (the whole key space when bounded == false) to r as one closed
// run — every present key in the range, ascending — and returns the
// smallest present key at or above hi ("" if none, or when unbounded):
// the existing key that anchors the scan's above-range gap coverage. Both
// are read under one hold of the index's read latch, so they agree. A lock
// manager that recycles r across acquisitions installs a scan's anchors
// with zero snapshot allocations at steady state.
func (s *Store) AppendRangeAnchors(r *data.KeyRuns, lo, hi data.Key, bounded bool) (ceiling data.Key) {
	s.idx.RLock()
	r.Keys = s.index.AppendRange(r.Keys, lo, hi, bounded)
	r.EndRun()
	if bounded {
		ceiling, _ = s.index.Ceiling(hi)
	}
	s.idx.RUnlock()
	return ceiling
}

// Len returns the number of rows.
func (s *Store) Len() int {
	s.idx.RLock()
	defer s.idx.RUnlock()
	return s.index.Len()
}

// UndoRecord is one entry of a transaction's undo log: the before-image of
// a write, to be restored on rollback in reverse order.
type UndoRecord struct {
	Key    data.Key
	Before data.Row
}

// UndoLog accumulates before-images for one transaction.
type UndoLog struct {
	records []UndoRecord
}

// Note appends a before-image — a row the store returned from Put or
// Delete.
func (u *UndoLog) Note(key data.Key, before data.Row) {
	u.records = append(u.records, UndoRecord{Key: key, Before: before})
}

// Len returns the number of undo records.
func (u *UndoLog) Len() int { return len(u.records) }

// Records returns the undo records in append order (for inspection).
func (u *UndoLog) Records() []UndoRecord { return u.records }

// Rollback restores before-images in reverse order. This is exactly the
// recovery procedure the paper's §3 shows to be unsound in the presence of
// Dirty Writes — the store applies it faithfully either way.
func (u *UndoLog) Rollback(s *Store) {
	for i := len(u.records) - 1; i >= 0; i-- {
		r := u.records[i]
		s.Restore(r.Key, r.Before)
	}
	u.records = nil
}
