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
// The store records, for every key, its committed version chain; this is
// both the visibility mechanism and the "remembered updates" that
// First-Committer-Wins validation checks ("First-committer-wins requires
// the system to remember all updates belonging to any transaction that
// commits after the Start-Timestamp of each active transaction") — and,
// as that sentence allows, nothing older: see "Forgetting" below.
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
// committers can never deadlock; it writes the stripes it latched into a
// buffer the committer owns and hands back to UnlockWriteSet, so a commit
// that keeps its buffer latches without allocating.
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
// # Rows
//
// A row is an immutable value (data.Row), and so is a committed version:
// a newer version replaces a row, nothing changes one. So the store never
// copies a row. Load, Install and InstallAbove keep the rows they are
// given; ReadAt and SelectAt hand out the stored rows themselves, valid for
// as long as the caller likes; and Chain copies only the chain, whose
// versions it shares. A row is shared end to end: the row a transaction
// writes is the version it commits, and the version every later snapshot
// reads.
//
// # Scans
//
// Each stripe keeps, beside its chains and under the same latch, an
// ordered index (data.OrderedSet) of every key that has a chain. The
// index is the scan path: SelectAt walks, per stripe, only the index run
// inside the predicate's key bounds and resolves each key's visible
// version on its chain in place, so a range read costs what the range
// holds, not what the table holds; a predicate that says nothing about
// keys walks the whole index through the same loop. The index gains a key
// only when a chain is created — Load or Install of a key the store does
// not hold — so a commit that rewrites existing keys does not touch it.
// A tombstone is a version, and a key whose newest version is a tombstone
// is still a row to every snapshot older than the delete: it stays indexed,
// and a scan skips it at the cost of one chain lookup, until no reader can
// see the delete's predecessor and the clock hand described below comes
// round to it.
//
// # Forgetting
//
// The retention rule is the paper's: a version matters while some reader
// can still see it or some validation can still be about it, and both are
// bounded by the oldest Start-Timestamp in use.
//
// What is registered. Every timestamp a read is served at is registered
// with the Oracle from before it is chosen until the last store access
// made at it: Acquire registers and returns Safe, AcquireAt registers a
// historical timestamp, Release ends either. The engines register an SI
// transaction's Start-Timestamp for its whole life, an RC statement's
// snapshot for the statement, and an RC cursor's for as long as it is open
// (internal/mvcc says why each).
//
// What Horizon means. Horizon = min(oldest registered timestamp, Safe),
// recomputed by Done and Release under the same o.mu every registration
// takes, and published in one atomic that only rises. No reader is served
// below it and none ever will be: a registration that comes after a
// computation gets Safe, which is at or above it, or is refused by
// AcquireAt. So for each key the newest version with CommitTS <= Horizon is
// the oldest anybody can see, and a chain whose only version is a tombstone
// at or below Horizon is a key nobody can see. A stale Horizon is lower
// and merely forgets less.
//
// Where it happens and who pays. There is no sweeper and no second install
// path. InstallAbove(horizon, ...) appends under the stripe latch Install
// always took, and first drops, in place, every version of that chain older
// than the newest one with CommitTS <= horizon; Install is the horizon 0
// case and drops nothing. A commit that rewrites live keys therefore pays
// for pruning the chains it was writing anyway — one extra map lookup, and
// chains that stop growing — and nothing else. Garbage in the index comes
// only from appends that create a chain or add a tombstone, so only those
// move the stripe's clock hand: two steps along the index, each pruning
// the chain under the hand and, if what is left is a lone tombstone at or
// below the horizon, deleting the chain and its index entry. Under
// insert-and-delete churn of fresh keys that bounds chains and index at
// about twice the live keys; an update-only workload never moves the hand.
// Readers pay nothing, and what they are registered to see is untouched:
// ReadAt, SelectAt and the comparison LatestCommitTS(k) > ts answer, at a
// registered ts, exactly as if nothing had been forgotten (LatestCommitTS
// of a reclaimed chain reads 0, and its tombstone was <= ts). At a
// timestamp below the Horizon they answer with whatever is left.
//
//isolint:deterministic
package mv

import (
	"runtime"
	"slices"
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
//
// The same holds one level up for readers: every timestamp obtained via
// Acquire or AcquireAt is handed back via Release, exactly once. One that
// never is holds the Horizon at it for good — nothing breaks, but nothing
// it could see is ever forgotten.
type Oracle struct {
	now     atomic.Uint64
	applied atomic.Uint64
	horizon atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]struct{} // Done out of order, waiting for the gap to fill
	// snaps is the registry of timestamps reads are being served at,
	// ascending and distinct, each with the number of readers holding it.
	// Acquire registers Safe, which only grows, so it lands on or after the
	// last entry; only AcquireAt inserts further down. Entries come and go
	// inside the slice's capacity, so a steady state allocates nothing.
	snaps []registered
}

// registered is one registry entry: n readers are being served at ts.
type registered struct {
	ts uint64
	n  int
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
	o.publishHorizon()
}

// Acquire registers a reader at the installed watermark and returns it: a
// stable snapshot timestamp whose visible versions the store will not
// forget until the matching Release.
func (o *Oracle) Acquire() TS {
	o.mu.Lock()
	defer o.mu.Unlock()
	ts := o.applied.Load()
	o.register(ts)
	return TS(ts)
}

// AcquireAt registers a reader at the historical timestamp ts. It refuses
// (false, nothing registered) a ts below the Horizon: versions visible
// there may already be gone, and a read would silently see newer ones.
func (o *Oracle) AcquireAt(ts TS) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if uint64(ts) < o.horizon.Load() {
		return false
	}
	o.register(uint64(ts))
	return true
}

// pos returns where ts is, or belongs, in the registry: every entry before
// it is older. It looks from the newest end, where Acquire always lands.
// Caller holds o.mu.
func (o *Oracle) pos(ts uint64) (i int, found bool) {
	i = len(o.snaps)
	for i > 0 && o.snaps[i-1].ts >= ts {
		i--
	}
	return i, i < len(o.snaps) && o.snaps[i].ts == ts
}

// register adds one reader at ts. Caller holds o.mu.
func (o *Oracle) register(ts uint64) {
	i, found := o.pos(ts)
	if found {
		o.snaps[i].n++
		return
	}
	o.snaps = append(o.snaps, registered{})
	copy(o.snaps[i+1:], o.snaps[i:])
	o.snaps[i] = registered{ts: ts, n: 1}
}

// Release ends one registration of ts, after the last store access made
// at it. Releasing a timestamp that is not registered is a caller bug and
// panics: carrying on would let the Horizon pass a reader still running.
func (o *Oracle) Release(ts TS) {
	o.mu.Lock()
	defer o.mu.Unlock()
	i, found := o.pos(uint64(ts))
	if !found {
		panic("mv: Release of a timestamp that is not registered")
	}
	if o.snaps[i].n--; o.snaps[i].n > 0 {
		return
	}
	o.snaps = append(o.snaps[:i], o.snaps[i+1:]...)
	if i == 0 {
		o.publishHorizon()
	}
}

// publishHorizon recomputes min(oldest registered snapshot, Safe). Caller
// holds o.mu, as every registration does: a reader registered after this
// computation got a timestamp at or above its result (Acquire returns
// Safe, AcquireAt checks), and one registered before it is in the minimum.
// That exclusion is the whole safety argument of version GC. The minimum
// never falls, for the same reason.
func (o *Oracle) publishHorizon() {
	h := o.applied.Load()
	if len(o.snaps) > 0 && o.snaps[0].ts < h {
		h = o.snaps[0].ts
	}
	o.horizon.Store(h)
}

// Horizon returns the forgetting line: no registered reader, and none that
// registers later, is served at a timestamp below it, so for every key the
// newest version with CommitTS <= Horizon is the oldest one anybody can
// still see. It is read without o.mu and may be stale, which is merely
// conservative — it only ever rises.
func (o *Oracle) Horizon() TS { return TS(o.horizon.Load()) }

// ActiveSnapshots returns the number of registered readers.
func (o *Oracle) ActiveSnapshots() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, r := range o.snaps {
		n += r.n
	}
	return n
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
// knob (mvcc.WithShards) for sweeps.
const DefaultShards = 16

// shard is one stripe of the store: a latch-protected slice of the chains
// plus the commit latch engines hold across validate+install.
type shard struct {
	mu     sync.RWMutex
	chains map[data.Key][]Version
	// index is the stripe's ordered set of every key that has a chain,
	// under mu like the chains; see "Scans" and "Forgetting" in the
	// package comment for when it is written.
	index data.OrderedSet
	// hand is the clock hand of sweep: a position in index.
	hand int
	// versionsReclaimed and chainsReclaimed count what append and sweep
	// have forgotten, under mu like everything they touch.
	versionsReclaimed, chainsReclaimed int64

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
// in ascending stripe order (deadlock-free), and returns the stripes it
// latched: buf[:0] with the distinct stripe indexes appended in ascending
// order. The caller releases them with UnlockWriteSet. A caller that hands
// the same buffer back on every commit latches without allocating once the
// buffer has room for its widest write set. Engines hold these latches
// across First-Committer-Wins validation and version install so that
// same-key committers serialize while disjoint-stripe committers proceed in
// parallel. An empty key set latches nothing.
func (s *Store) LockWriteSet(keys []data.Key, buf []int) (stripes []int) {
	stripes = buf[:0]
	for _, k := range keys {
		i := s.shardIndex(k)
		if at, found := slices.BinarySearch(stripes, i); !found {
			stripes = slices.Insert(stripes, at, i)
		}
	}
	for _, i := range stripes {
		s.shards[i].commitMu.Lock()
	}
	return stripes
}

// UnlockWriteSet releases the commit latches LockWriteSet latched, in
// reverse order.
func (s *Store) UnlockWriteSet(stripes []int) {
	for j := len(stripes) - 1; j >= 0; j-- {
		s.shards[stripes[j]].commitMu.Unlock()
	}
}

// Load installs initial versions at commit timestamp ts (setup helper).
func (s *Store) Load(ts TS, tuples ...data.Tuple) {
	for _, t := range tuples {
		sh := s.shardOf(t.Key)
		sh.mu.Lock()
		sh.append(t.Key, Version{CommitTS: ts, Row: t.Row}, 0)
		sh.mu.Unlock()
	}
}

// append forgets what horizon lets it of key's chain, then adds v,
// indexing the key if that created the chain. Only an append that leaves
// index garbage behind — a new chain, or a tombstone, which is a chain on
// its way to holding nothing — moves the clock hand, so a rewrite of a live
// key pays for its own chain and nothing else. Caller holds sh.mu.
func (sh *shard) append(key data.Key, v Version, horizon TS) {
	chain, existed := sh.chains[key]
	sh.chains[key] = append(sh.prune(chain, horizon), v)
	if !existed {
		sh.index.Insert(key)
	}
	if !existed || v.Deleted {
		sh.sweep(horizon)
		sh.sweep(horizon)
	}
}

// prune drops, in place, every version of chain older than the newest one
// with CommitTS <= horizon — that one is what a reader at the horizon
// sees, and no reader is older. The survivors move down inside the chain's
// capacity and the vacated tail is zeroed so the dropped rows are
// collectable. Horizon 0 is below every timestamp and drops nothing.
// Caller holds sh.mu.
func (sh *shard) prune(chain []Version, horizon TS) []Version {
	drop := 0
	for drop+1 < len(chain) && chain[drop+1].CommitTS <= horizon {
		drop++
	}
	if drop == 0 {
		return chain
	}
	n := copy(chain, chain[drop:])
	clear(chain[n:])
	sh.versionsReclaimed += int64(drop)
	return chain[:n]
}

// sweep moves the clock hand one key along the stripe's index: it prunes
// that key's chain and, if all that is left is a tombstone at or below the
// horizon — a key no reader can see, now or later — forgets the chain and
// its index entry. Caller holds sh.mu.
func (sh *shard) sweep(horizon TS) {
	keys := sh.index.View("", "", false)
	if len(keys) == 0 {
		return
	}
	if sh.hand >= len(keys) {
		sh.hand = 0
	}
	key := keys[sh.hand]
	chain := sh.prune(sh.chains[key], horizon)
	if len(chain) == 1 && chain[0].Deleted && chain[0].CommitTS <= horizon {
		delete(sh.chains, key)
		sh.index.Delete(key) // the hand now rests on the next key
		sh.versionsReclaimed++
		sh.chainsReclaimed++
		return
	}
	sh.chains[key] = chain
	sh.hand++
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
	return *vis, !vis.Deleted
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
// guarantees ts exceeds every CommitTS already in the touched chains. It
// forgets nothing: InstallAbove at horizon 0.
func (s *Store) Install(ts TS, writer int, writes map[data.Key]data.Row) {
	s.InstallAbove(0, ts, writer, writes)
}

// InstallAbove is Install that also forgets, on the stripes it visits and
// under the latches it takes anyway, versions no reader at or above
// horizon can see (see "Forgetting" in the package comment). The caller
// passes Oracle.Horizon, or anything lower.
func (s *Store) InstallAbove(horizon, ts TS, writer int, writes map[data.Key]data.Row) {
	//isolint:ordered per-key chain appends at one commit timestamp; visit order decides only which garbage the clock hand meets first, never what a registered reader sees
	for key, row := range writes {
		v := Version{CommitTS: ts, Writer: writer, Row: row, Deleted: row == nil}
		sh := s.shardOf(key)
		sh.mu.Lock()
		sh.append(key, v, horizon)
		sh.mu.Unlock()
	}
}

// SelectAt returns all tuples visible at ts that satisfy p, sorted by key.
// It reads only the part of the key space p can cover: per stripe, under the
// stripe's read latch, the index run inside predicate.KeyBounds(p) — the
// whole index when p says nothing about keys — resolving each key's
// visible version on its chain in place. For ts <= Oracle.Safe the stripes
// need not be read at one instant: every version with CommitTS <= ts is
// already installed, and whatever a concurrent Install adds (a new
// version, a new key) carries a larger timestamp and is skipped, so the
// answer is the same whenever each stripe is visited.
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
				out = append(out, t)
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
	return slices.Clone(sh.chains[key])
}

// Reclaimed returns how many versions and how many whole chains the store
// has forgotten so far.
func (s *Store) Reclaimed() (versions, chains int64) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		versions += sh.versionsReclaimed
		chains += sh.chainsReclaimed
		sh.mu.RUnlock()
	}
	return versions, chains
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
