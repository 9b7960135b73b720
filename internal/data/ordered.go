package data

import "sort"

// OrderedSet is an ordered index over keys: the sorted key space that the
// stores' range scans and key-range (next-key) locking range over. The
// single-version store (sv) keeps one for the whole store, under its own
// latch beside the striped hash maps, so a range is one run and needs no
// merge. The multiversion store (mv) keeps one per stripe, under the
// stripe's latch, and a cross-stripe range there is the merge of the
// per-stripe runs (MergeKeys).
//
// The representation is a sorted slice with binary-search insert/delete:
// stores here hold at most a few thousand rows per stripe, where a flat
// slice beats a skiplist on every operation that matters (ordered range
// copy above all) and costs O(n) only on insertion shifts.
//
// The zero value is an empty set, ready to use.
type OrderedSet struct {
	keys []Key
}

// search returns the insertion index of k and whether k is present.
func (s *OrderedSet) search(k Key) (int, bool) {
	i := sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= k })
	return i, i < len(s.keys) && s.keys[i] == k
}

// Insert adds k; inserting a present key is a no-op.
func (s *OrderedSet) Insert(k Key) {
	i, ok := s.search(k)
	if ok {
		return
	}
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = k
}

// Delete removes k; deleting an absent key is a no-op.
func (s *OrderedSet) Delete(k Key) {
	i, ok := s.search(k)
	if !ok {
		return
	}
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
}

// Len returns the number of keys.
func (s *OrderedSet) Len() int { return len(s.keys) }

// View returns the keys in the half-open interval [lo, hi), ascending, as
// a window onto the set's own storage; with bounded == false it returns
// every key (the whole key space, the range of an unbounded predicate).
// Nothing is copied, so the window is valid only until the set is next
// modified: a store hands it out under the latch over the set and the
// scan finishes with it before the latch drops. This is what keeps a range
// read's cost proportional to the range, not the table.
func (s *OrderedSet) View(lo, hi Key, bounded bool) []Key {
	if !bounded {
		return s.keys
	}
	i, _ := s.search(lo)
	j, _ := s.search(hi)
	if j < i {
		return nil // hi < lo: the empty interval
	}
	return s.keys[i:j]
}

// Range returns a copy of View(lo, hi, bounded), safe to keep after the
// latch over the set is released.
func (s *OrderedSet) Range(lo, hi Key, bounded bool) []Key {
	return s.AppendRange(nil, lo, hi, bounded)
}

// AppendRange appends View(lo, hi, bounded) to dst and returns the
// extended slice. The allocation-free sibling of Range: a caller that
// recycles dst pays nothing once its capacity has grown to the working
// set, which is what keeps a steady-state key-range lock install O(1)
// allocations (lock.Manager feeds the store's anchor run into a reused
// KeyRuns).
func (s *OrderedSet) AppendRange(dst []Key, lo, hi Key, bounded bool) []Key {
	return append(dst, s.View(lo, hi, bounded)...)
}

// Ceiling returns the smallest key greater than or equal to k, and whether
// one exists — the covering-anchor lookup of a gap check (a fragment at k
// itself covers the record, one above covers the gap).
func (s *OrderedSet) Ceiling(k Key) (Key, bool) {
	i, _ := s.search(k)
	if i == len(s.keys) {
		return "", false
	}
	return s.keys[i], true
}

// KeyRuns collects sorted key runs in one reusable buffer: all runs share
// a single backing slice, with Ends recording where each run stops. The
// sv store appends one run (its one index); a caller with static anchors
// appends one too. Resetting and refilling a KeyRuns reuses both backing
// arrays, so a producer that snapshots the same store shape repeatedly (a
// key-range scan re-installing its anchors) allocates nothing at steady
// state — unlike a fresh []Key per snapshot.
type KeyRuns struct {
	// Keys holds every run back to back, in run order.
	Keys []Key
	// Ends[i] is the end offset of run i in Keys (run i starts at
	// Ends[i-1], or 0 for the first run).
	Ends []int
}

// Reset empties the collection, keeping both backing arrays.
func (r *KeyRuns) Reset() {
	r.Keys = r.Keys[:0]
	r.Ends = r.Ends[:0]
}

// EndRun closes the current run: everything appended to Keys since the
// previous EndRun becomes one run.
func (r *KeyRuns) EndRun() { r.Ends = append(r.Ends, len(r.Keys)) }

// NumRuns returns the number of closed runs.
func (r *KeyRuns) NumRuns() int { return len(r.Ends) }

// Run returns run i as a view into the shared buffer (valid until the next
// Reset or append).
func (r *KeyRuns) Run(i int) []Key {
	start := 0
	if i > 0 {
		start = r.Ends[i-1]
	}
	return r.Keys[start:r.Ends[i]]
}

// MergeKeys merges ascending runs (one per mv stripe) into one ascending
// key slice. Runs must each be sorted and duplicate-free across runs (stripes
// partition the key space, so they are).
func MergeKeys(runs ...[]Key) []Key {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return append([]Key(nil), runs[0]...)
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]Key, 0, total)
	pos := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if pos[i] >= len(r) {
				continue
			}
			if best < 0 || r[pos[i]] < runs[best][pos[best]] {
				best = i
			}
		}
		out = append(out, runs[best][pos[best]])
		pos[best]++
	}
	return out
}
