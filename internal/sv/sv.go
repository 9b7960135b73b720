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
// The store is striped: keys hash onto a fixed set of stripes (the same
// scheme as the lock manager's and the multiversion store's), each with
// its own RWMutex over its slice of the rows. Every stripe provides atomic
// individual actions (the paper's Degree 0 "action atomicity") and nothing
// more; every stronger guarantee comes from the lock manager above it.
// Striping matters because the store sits under the striped lock manager:
// one store latch would re-serialize the disjoint-key traffic the lock
// stripes just freed.
//
// Each stripe also maintains an ordered key index beside its hash map
// (data.OrderedSet, under the same latch, holding exactly the present
// keys). The index is the scan path: Select walks, per stripe, only the
// index run inside the predicate's key bounds, so a range read costs what
// the range holds, not what the table holds; a predicate that says nothing
// about keys walks the whole index through the same loop. Keys and the
// key-range (next-key) lock anchors (RangeAnchors) are merges of the same
// per-stripe runs. The hash map stays the point path: Get, Put and Delete
// never search the index for a row.
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
//isolint:deterministic
package sv

import (
	"cmp"
	"slices"
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
	// index is the stripe's ordered key set, maintained beside the hash
	// map under the same latch: what Select, Keys and the key-range lock
	// anchors (RangeAnchors) read. Point reads and writes go by the map.
	index data.OrderedSet
}

// Store is an in-place single-version row store.
type Store struct {
	striper data.Striper
	shards  []*shard
	obs     *obs.Sink
}

// SetObs attaches an observability sink; Select records its scan latency
// there. Nil (the default) keeps the scan path free of clock reads. Must
// be set before concurrent use.
func (s *Store) SetObs(sink *obs.Sink) { s.obs = sink }

// NewStore returns an empty store with DefaultShards stripes.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards returns an empty store striped across n latches (n < 1 is
// treated as 1; n = 1 reproduces the old single-latch behavior).
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
	for _, t := range tuples {
		sh := s.shardOf(t.Key)
		sh.mu.Lock()
		sh.rows[t.Key] = t.Row
		sh.index.Insert(t.Key)
		sh.mu.Unlock()
	}
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
// for an insert).
func (s *Store) Put(key data.Key, row data.Row) (before data.Row) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	before, present := sh.rows[key]
	sh.rows[key] = row
	if !present {
		// An update leaves the key set as it was: only an insert touches
		// the index.
		sh.index.Insert(key)
	}
	sh.mu.Unlock()
	return before
}

// Delete removes the row and returns the before-image (nil if it was
// already absent).
func (s *Store) Delete(key data.Key) (before data.Row) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	before = sh.rows[key]
	delete(sh.rows, key)
	sh.index.Delete(key)
	sh.mu.Unlock()
	return before
}

// Restore writes a before-image back (undo): nil removes the row.
func (s *Store) Restore(key data.Key, before data.Row) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if before == nil {
		delete(sh.rows, key)
		sh.index.Delete(key)
	} else {
		if _, present := sh.rows[key]; !present {
			sh.index.Insert(key)
		}
		sh.rows[key] = before
	}
	sh.mu.Unlock()
}

// Select returns all tuples satisfying p, sorted by key. It reads only
// the part of the key space p can cover: per stripe, under the stripe's
// read latch, the index run inside predicate.KeyBounds(p) — the whole
// index when p says nothing about keys — matching each row in place. Each
// stripe is read atomically, the stripes one after another; as everywhere
// in this store, a scan that must not see a concurrent writer's half-done
// work holds a lock above it.
func (s *Store) Select(p predicate.P) []data.Tuple {
	start := s.obs.Now()
	lo, hi, bounded := predicate.KeyBounds(p)
	var out []data.Tuple
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, k := range sh.index.View(lo, hi, bounded) {
			t := data.Tuple{Key: k, Row: sh.rows[k]}
			if p.Match(t) {
				out = append(out, t)
			}
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b data.Tuple) int { return cmp.Compare(a.Key, b.Key) })
	s.obs.RecordScan(start)
	return out
}

// Keys returns all present keys, sorted: the merge of the per-stripe
// index runs.
func (s *Store) Keys() []data.Key {
	runs := make([][]data.Key, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		runs[i] = sh.index.Range("", "", false)
		sh.mu.RUnlock()
	}
	return data.MergeKeys(runs...)
}

// RangeAnchors returns the anchor set of a key-range scan over [lo, hi)
// (the whole key space when bounded == false): every present key in the
// range, ascending — merged from the per-stripe ordered indexes — plus the
// smallest present key at or above hi ("" if none), the existing key that
// will anchor the scan's above-range gap coverage. The per-stripe runs are
// each read under that stripe's latch; the merge itself is latch-free, so
// a concurrent writer can slip between stripes — the lock manager's
// conflict check against live row images is what makes that race benign.
func (s *Store) RangeAnchors(lo, hi data.Key, bounded bool) (anchors []data.Key, ceiling data.Key) {
	runs := make([][]data.Key, len(s.shards))
	haveCeil := false
	for i, sh := range s.shards {
		sh.mu.RLock()
		runs[i] = sh.index.Range(lo, hi, bounded)
		if bounded {
			// Higher is strict; hi itself is a legal ceiling (hi is the
			// first key outside the half-open range).
			if sh.index.Contains(hi) {
				if !haveCeil || hi < ceiling {
					ceiling, haveCeil = hi, true
				}
			} else if c, ok := sh.index.Higher(hi); ok && (!haveCeil || c < ceiling) {
				ceiling, haveCeil = c, true
			}
		}
		sh.mu.RUnlock()
	}
	return data.MergeKeys(runs...), ceiling
}

// AppendRangeAnchors is RangeAnchors without the copies: each stripe's
// in-range run is appended to r (one closed run per stripe, in stripe
// order), and only the ceiling is returned. A lock manager that recycles r
// across acquisitions installs a scan's anchors with zero snapshot
// allocations at steady state; the same between-stripes race as
// RangeAnchors applies and is benign for the same reason.
func (s *Store) AppendRangeAnchors(r *data.KeyRuns, lo, hi data.Key, bounded bool) (ceiling data.Key) {
	haveCeil := false
	for _, sh := range s.shards {
		sh.mu.RLock()
		r.Keys = sh.index.AppendRange(r.Keys, lo, hi, bounded)
		r.EndRun()
		if bounded {
			if sh.index.Contains(hi) {
				if !haveCeil || hi < ceiling {
					ceiling, haveCeil = hi, true
				}
			} else if c, ok := sh.index.Higher(hi); ok && (!haveCeil || c < ceiling) {
				ceiling, haveCeil = c, true
			}
		}
		sh.mu.RUnlock()
	}
	return ceiling
}

// Len returns the number of rows.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.rows)
		sh.mu.RUnlock()
	}
	return n
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
