// Package mv is the multiversion row store and timestamp oracle behind the
// Snapshot Isolation engine (§4.2) and the Oracle-style Read Consistency
// engine (§4.3).
//
// Each data item carries a chain of committed versions stamped with the
// commit timestamp of their writer. A read at snapshot timestamp ts sees
// the version with the largest commit timestamp <= ts ("Updates by other
// transactions active after the transaction Start-Timestamp are invisible
// to the transaction"). Reads never block and never block writers.
//
// The store records, for every key, the full committed version chain; this
// is both the visibility mechanism and the "remembered updates" that
// First-Committer-Wins validation checks ("First-committer-wins requires
// the system to remember all updates belonging to any transaction that
// commits after the Start-Timestamp of each active transaction").
//
// # Striping
//
// The store is sharded: keys hash onto a fixed set of stripes, each with
// its own read-write latch over its slice of the version chains, plus a
// commit latch used by the engines' validate+install critical sections.
// Transactions whose write sets land on disjoint stripes validate and
// commit fully in parallel; only same-stripe (in particular same-key)
// committers serialize. LockWriteSet acquires the commit latches of every
// stripe a write set covers, in ascending stripe order, so concurrent
// committers can never deadlock.
//
// Because commits no longer funnel through one global mutex, "the newest
// committed snapshot" is no longer a single atomic fact: a commit
// timestamp is allocated before its versions finish installing. The
// Oracle therefore keeps a watermark (Safe) alongside the allocation
// counter (Current): Safe is the largest timestamp t such that every
// commit with timestamp <= t has fully installed. Engines start snapshots
// at Safe, never Current, so a snapshot can never observe half of a
// concurrent commit and no version with CommitTS <= a started snapshot
// can appear after the fact. A committer in turn returns only once Safe
// has reached its own commit timestamp (WaitSafe), so the next snapshot
// its session takes contains what it just committed.
//
// # Scans
//
// Each stripe keeps, beside its chains and under the same latch, an
// ordered index (data.OrderedSet) of every key that has a chain. The
// index is the scan path: SelectAt walks, per stripe, only the index run
// inside the predicate's key bounds and resolves each key's visible
// version on its chain in place, so a range read costs what the range
// holds, not what the table holds; a predicate that says nothing about
// keys walks the whole index through the same loop. The index is written
// only when a chain is created — Load or Install of a key the store has
// never held — so a commit that rewrites existing keys does not touch it.
// It never shrinks: chains are append-only, a tombstone is a version, and
// a key whose newest version is a tombstone is still a row to every
// snapshot older than the delete. Until there is version GC to say no
// live snapshot can see a chain, its key stays indexed, and a scan skips
// it at the cost of one chain lookup.
//
//isolint:deterministic
package mv

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// TS is a timestamp drawn from the Oracle.
type TS uint64

// Oracle issues monotonically increasing timestamps and tracks the
// installed watermark. The zero value is ready to use; the first timestamp
// issued is 1.
//
// Invariant: every timestamp obtained via Next is reported back via Done,
// exactly once, whether or not its versions were installed — callers pair
// the two with a defer. Safe advances only across consecutive Done
// timestamps, so one that never arrives freezes the watermark below it for
// good: snapshots go stale and every later WaitSafe spins forever.
type Oracle struct {
	now     atomic.Uint64
	applied atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]struct{} // Done out of order, waiting for the gap to fill
}

// Next returns a fresh timestamp larger than every previously issued one.
func (o *Oracle) Next() TS { return TS(o.now.Add(1)) }

// Current returns the latest issued timestamp (the newest allocation, not
// necessarily installed — see Safe).
func (o *Oracle) Current() TS { return TS(o.now.Load()) }

// Done marks ts as fully installed and advances the Safe watermark across
// every consecutive installed timestamp.
func (o *Oracle) Done(ts TS) {
	o.mu.Lock()
	defer o.mu.Unlock()
	applied := o.applied.Load()
	if uint64(ts) != applied+1 {
		if o.pending == nil {
			o.pending = map[uint64]struct{}{}
		}
		o.pending[uint64(ts)] = struct{}{}
		return
	}
	applied++
	for {
		if _, ok := o.pending[applied+1]; !ok {
			break
		}
		delete(o.pending, applied+1)
		applied++
	}
	o.applied.Store(applied)
}

// Safe returns the installed watermark: the largest timestamp t such that
// every commit with timestamp <= t has fully installed. Snapshots started
// at Safe are stable — no version with CommitTS <= Safe can appear later.
func (o *Oracle) Safe() TS { return TS(o.applied.Load()) }

// WaitSafe returns once Safe() >= ts: every commit up to and including ts
// has fully installed, so a snapshot taken next contains it. A committer
// calls it on its own commit timestamp after Done — outside every latch —
// because Done(ts) alone does not move the watermark while an earlier
// timestamp is still installing. That earlier committer sits between Next
// and Done, a stretch that never blocks, so the wait is a few yields, not
// a latch — and it is unbounded only if the Oracle's Next/Done invariant
// is broken.
func (o *Oracle) WaitSafe(ts TS) {
	for o.applied.Load() < uint64(ts) {
		runtime.Gosched()
	}
}

// Version is one committed version of a data item. Deleted marks a
// tombstone (the delete is itself a committed version).
type Version struct {
	CommitTS TS
	Writer   int // transaction id of the writer, for dataflow analysis
	Row      data.Row
	Deleted  bool
}

// DefaultShards is the stripe count of NewStore. It trades map-latch
// contention against per-operation hashing cost; engines expose it as a
// knob (snapshot.WithShards, oraclerc.WithShards) for sweeps.
const DefaultShards = 16

// shard is one stripe of the store: a latch-protected slice of the chains
// plus the commit latch engines hold across validate+install.
type shard struct {
	mu     sync.RWMutex
	chains map[data.Key][]Version
	// index is the stripe's ordered set of every key that has a chain,
	// under mu like the chains; see "Scans" in the package comment for
	// when it is written and why it never shrinks.
	index data.OrderedSet

	// commitMu is the stripe's commit latch. It is separate from mu so
	// that holding a write-set's commit latches (potentially across a
	// validation loop) never blocks plain snapshot reads of the stripe;
	// readers only wait during the brief chain append inside Install.
	commitMu sync.Mutex
}

// Store is a striped multiversion row store.
type Store struct {
	striper data.Striper
	shards  []*shard
}

// NewStore returns an empty multiversion store with DefaultShards stripes.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards returns an empty multiversion store striped across n
// latches (n < 1 is treated as 1; n = 1 degenerates to the old global-latch
// behavior, useful as a baseline in shard sweeps).
func NewStoreShards(n int) *Store {
	striper := data.NewStriper(n)
	s := &Store{striper: striper, shards: make([]*shard, striper.Count())}
	for i := range s.shards {
		s.shards[i] = &shard{chains: map[data.Key][]Version{}}
	}
	return s
}

// ShardCount returns the number of stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

func (s *Store) shardOf(key data.Key) *shard {
	return s.shards[s.shardIndex(key)]
}

func (s *Store) shardIndex(key data.Key) int { return s.striper.Index(key) }

// LockWriteSet acquires the commit latches of every stripe covered by keys,
// in ascending stripe order (deadlock-free), and returns the release
// function. Engines hold these latches across First-Committer-Wins
// validation and version install so that same-key committers serialize
// while disjoint-stripe committers proceed in parallel. An empty key set
// returns a no-op release.
func (s *Store) LockWriteSet(keys []data.Key) (release func()) {
	if len(keys) == 0 {
		return func() {}
	}
	idx := make([]int, 0, len(keys))
	seen := map[int]bool{}
	for _, k := range keys {
		i := s.shardIndex(k)
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		s.shards[i].commitMu.Lock()
	}
	return func() {
		for j := len(idx) - 1; j >= 0; j-- {
			s.shards[idx[j]].commitMu.Unlock()
		}
	}
}

// Load installs initial versions at commit timestamp ts (setup helper).
func (s *Store) Load(ts TS, tuples ...data.Tuple) {
	for _, t := range tuples {
		sh := s.shardOf(t.Key)
		sh.mu.Lock()
		sh.append(t.Key, Version{CommitTS: ts, Row: t.Row.Clone()})
		sh.mu.Unlock()
	}
}

// append adds v to key's chain, indexing the key if that created the
// chain — seen as the map growing, so an append to an existing chain stays
// the single map operation it was. Caller holds sh.mu.
func (sh *shard) append(key data.Key, v Version) {
	n := len(sh.chains)
	sh.chains[key] = append(sh.chains[key], v)
	if len(sh.chains) != n {
		sh.index.Insert(key)
	}
}

// visibleAt returns the version of chain visible at snapshot ts — the one
// with the largest CommitTS <= ts, tombstones included — or nil if the
// chain has none that old.
func visibleAt(chain []Version, ts TS) *Version {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].CommitTS <= ts {
			return &chain[i]
		}
	}
	return nil
}

// ReadAt returns the version of key visible at snapshot ts: the committed
// version with the largest CommitTS <= ts. ok is false if no version is
// visible (never written, or the visible version is a tombstone — the
// tombstone itself is returned so callers can distinguish).
func (s *Store) ReadAt(key data.Key, ts TS) (v Version, ok bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	vis := visibleAt(sh.chains[key], ts)
	if vis == nil {
		return Version{}, false
	}
	if vis.Deleted {
		return *vis, false
	}
	out := *vis
	out.Row = out.Row.Clone()
	return out, true
}

// LatestCommitTS returns the commit timestamp of the newest committed
// version of key, or 0 if the key has never been written. This is the
// First-Committer-Wins validation primitive: T1 may commit only if no key
// in its write set has LatestCommitTS > T1's start timestamp. Stable
// answers for a whole write set require holding the set's commit latches
// (LockWriteSet) across the checks.
func (s *Store) LatestCommitTS(key data.Key) TS {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	if len(chain) == 0 {
		return 0
	}
	return chain[len(chain)-1].CommitTS
}

// Install appends committed versions for writer at commit timestamp ts.
// The caller (the engine's commit critical section, under LockWriteSet)
// guarantees ts exceeds every CommitTS already in the touched chains.
func (s *Store) Install(ts TS, writer int, writes map[data.Key]data.Row) {
	//isolint:ordered per-key chain appends at one commit timestamp; each key's chain is unaffected by visit order
	for key, row := range writes {
		v := Version{CommitTS: ts, Writer: writer}
		if row == nil {
			v.Deleted = true
		} else {
			v.Row = row.Clone()
		}
		sh := s.shardOf(key)
		sh.mu.Lock()
		sh.append(key, v)
		sh.mu.Unlock()
	}
}

// SelectAt returns copies of all tuples visible at ts that satisfy p,
// sorted by key. It reads only the part of the key space p can cover: per
// stripe, under the stripe's read latch, the index run inside
// predicate.KeyBounds(p) — the whole index when p says nothing about keys
// — resolving each key's visible version on its chain in place and cloning
// only the hits. For ts <= Oracle.Safe the stripes need not be read at one
// instant: every version with CommitTS <= ts is already installed, and
// whatever a concurrent Install adds (a new version, a new key) carries a
// larger timestamp and is skipped, so the answer is the same whenever each
// stripe is visited.
func (s *Store) SelectAt(p predicate.P, ts TS) []data.Tuple {
	lo, hi, bounded := predicate.KeyBounds(p)
	var out []data.Tuple
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, k := range sh.index.View(lo, hi, bounded) {
			v := visibleAt(sh.chains[k], ts)
			if v == nil || v.Deleted {
				continue
			}
			t := data.Tuple{Key: k, Row: v.Row}
			if p.Match(t) {
				out = append(out, t.Clone())
			}
		}
		sh.mu.RUnlock()
	}
	data.SortTuples(out)
	return out
}

// SnapshotAt returns every visible tuple at ts, sorted by key.
func (s *Store) SnapshotAt(ts TS) []data.Tuple {
	return s.SelectAt(predicate.True{}, ts)
}

// VersionCount returns the number of committed versions of key (tombstones
// included) — used by tests and the time-travel example.
func (s *Store) VersionCount(key data.Key) int {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.chains[key])
}

// Chain returns a copy of key's version chain in commit order.
func (s *Store) Chain(key data.Key) []Version {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]Version, len(sh.chains[key]))
	copy(out, sh.chains[key])
	for i := range out {
		out[i].Row = out[i].Row.Clone()
	}
	return out
}

// Keys returns every key that has at least one version, sorted: the merge
// of the per-stripe index runs.
func (s *Store) Keys() []data.Key {
	runs := make([][]data.Key, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		runs[i] = sh.index.Range("", "", false)
		sh.mu.RUnlock()
	}
	return data.MergeKeys(runs...)
}
