// Package mvcc is the unified multiversion engine behind both of the
// paper's multiversion isolation levels: Snapshot Isolation (§4.2) and
// Oracle-style Read Consistency (§4.3). One DB holds one mv.Store, one
// timestamp mv.Oracle and one write-lock manager, and Begin hands out
// either transaction kind — so SI and RC transactions genuinely interleave
// against the same committed version chains, the way the paper's histories
// mix isolation degrees inside a single scheduler.
//
//   - A SNAPSHOT ISOLATION transaction (SITx) pins its snapshot at its
//     Start-Timestamp, buffers writes privately, and commits through the
//     striped First-Committer-Wins critical section: latch the store
//     stripes of the write set, validate per-key LatestCommitTS against
//     the start timestamp, install, release.
//   - A READ CONSISTENCY transaction (RCTx) takes a fresh statement-level
//     snapshot per Get/Select/OpenCursor, covers writes with long
//     exclusive locks (first-writer-wins: block, don't abort), and
//     installs its versions at commit.
//
// Because both kinds commit into the same store, RC commits also install
// under the store's write-set stripe latches (mv.Store.LockWriteSet): an
// RC commit that merely relied on its write locks could otherwise slip a
// version under a concurrent SI validate+install critical section — SI
// transactions take no write locks, so the stripe latch is the only fence
// between an RC install and an SI validation of the same key. Snapshots
// (transaction- and statement-level alike) start at the oracle's
// installed watermark (Oracle.Safe), so neither kind can observe half of
// a concurrent commit; and a Commit of either kind returns only once the
// watermark has reached its commit timestamp, so a session's next
// snapshot always contains its own last commit.
//
// # Rows are shared, not copied
//
// A row is an immutable value (data.Row), so the engine never copies one.
// The row a caller hands to Put or UpdateCurrent goes into the private
// write set, into an RC write lock's row images, and at commit into the
// store as the committed version; Get, ReadCommittedRow, Select, Fetch and
// Current hand out the stored rows, or the write set's own.
//
// # Registering readers
//
// Every commit forgets, on the chains it writes, the versions no reader
// can still see (mv "Forgetting"), which it knows from the oracle's
// horizon: the oldest timestamp any read is registered at. So every read
// of the store happens at a registered timestamp, taken from before the
// timestamp is chosen until the last access at it — choosing Safe first
// and reading at it afterwards leaves a window in which two commits to the
// same key forget the version the read was about to see, and it would
// report a live row missing.
//
//   - An SITx registers its Start-Timestamp at Begin (BeginAsOf: at the
//     historical timestamp, refused with engine.ErrSnapshotTooOld below the
//     horizon) and releases it exactly once, at whichever transition ends
//     it: read-only commit, first-committer-wins abort, commit, Abort.
//     The registration spans validation: LatestCommitTS of a reclaimed
//     tombstone chain reads 0, which is only "no conflict" for a
//     transaction the horizon has not passed.
//   - An RCTx registers per statement — Get, the before-image read of a
//     write, Select, the before-image read of UpdateCurrent — and never
//     across a lock wait. DB.ReadCommittedRow does the same.
//   - An RC cursor keeps the snapshot of its OpenCursor registered until
//     Close or the end of the transaction, because UpdateCurrent compares
//     LatestCommitTS(key) with it: a row deleted after the open has to be
//     remembered for as long as somebody may ask whether it changed.
//
// There is no retention setting. History is kept as the paper keeps it, by
// an active Start-Timestamp: a caller that wants to travel back to a
// timestamp later holds a snapshot open at or before it
// (examples/timetravel).
//
// There is one multiversion engine: every DB serves both levels, and the
// isolation level belongs to the transaction (isolevel.NewMVDB, the
// differential fuzzer's "mv" family in uniform and mixed campaigns alike).
//
//isolint:deterministic
package mvcc

import (
	"fmt"
	"sync/atomic"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/mv"
	"isolevel/internal/obs"
	"isolevel/internal/predicate"
)

// Option configures a DB.
type Option func(*DB)

// WithShards sets the stripe count of the underlying multiversion store
// and of the write-lock manager's lock tables (default mv.DefaultShards).
func WithShards(n int) Option {
	return func(db *DB) { db.shards = n }
}

// DB is a unified multiversion database serving Snapshot Isolation and
// Read Consistency transactions over one store.
type DB struct {
	store  *mv.Store
	oracle *mv.Oracle
	lm     *lock.Manager
	seq    atomic.Int64
	rec    *engine.Recorder
	shards int
	obs    *obs.Sink
}

// SetObs attaches an observability sink to the engine and its write-lock
// manager. Nil (the default) keeps every hot path free of clock reads and
// event appends. Must be set before concurrent use.
func (db *DB) SetObs(s *obs.Sink) {
	db.obs = s
	db.lm.SetObs(s)
}

// Obs returns the attached observability sink (nil when disabled).
func (db *DB) Obs() *obs.Sink { return db.obs }

// NewDB returns an empty multiversion database.
func NewDB(opts ...Option) *DB {
	db := &DB{
		shards: mv.DefaultShards,
		oracle: &mv.Oracle{},
		rec:    engine.NewRecorder(),
	}
	for _, o := range opts {
		o(db)
	}
	db.store = mv.NewStoreShards(db.shards)
	db.lm = lock.NewManagerShards(db.shards)
	return db
}

// ShardCount reports the stripe count of the underlying store.
func (db *DB) ShardCount() int { return db.store.ShardCount() }

// Chain exposes a key's committed version chain (tests probe it to assert
// ascending-timestamp installs across the striped commit paths).
func (db *DB) Chain(key data.Key) []mv.Version { return db.store.Chain(key) }

// Recorder exposes the execution recorder.
func (db *DB) Recorder() *engine.Recorder { return db.rec }

// LockStats returns the write-lock manager's counters (RC traffic only;
// SI transactions never touch the lock manager).
func (db *DB) LockStats() lock.Stats { return db.lm.Stats() }

// Stats is a point-in-time reading of the version store's bookkeeping: how
// far commits are from being visible, how far the oldest open snapshot
// holds forgetting back, and how much has been forgotten.
type Stats struct {
	WatermarkLag      int64 // Current − Safe: timestamps allocated and not yet visible
	HorizonLag        int64 // Safe − Horizon: commits whose predecessors the oldest open snapshot keeps alive
	SnapshotsActive   int64 // registered readers: open SI transactions, RC cursors, statements in flight
	VersionsReclaimed int64 // versions dropped from chains, tombstones of reclaimed chains included
	ChainsReclaimed   int64 // keys whose chain and index entry were dropped whole
}

// MVStats reads Stats. It costs the engine nothing until called: the gauges
// are computed here and the counters are kept under latches the store
// takes anyway. A HorizonLag that only grows is a session that began a
// transaction and stalled, or leaked it.
func (db *DB) MVStats() Stats {
	// Horizon <= Safe <= Current at every instant and each only rises, so
	// reading them in that order keeps both differences non-negative.
	horizon := db.oracle.Horizon()
	safe := db.oracle.Safe()
	current := db.oracle.Current()
	versions, chains := db.store.Reclaimed()
	return Stats{
		WatermarkLag:      int64(current - safe),
		HorizonLag:        int64(safe - horizon),
		SnapshotsActive:   int64(db.oracle.ActiveSnapshots()),
		VersionsReclaimed: versions,
		ChainsReclaimed:   chains,
	}
}

// SetObserver forwards a wait observer to the lock manager.
func (db *DB) SetObserver(o lock.Observer) { db.lm.SetObserver(o) }

// ParkGrants forwards grant parking to the lock manager (the schedule
// runner's one-op-at-a-time delivery of lock grants).
func (db *DB) ParkGrants(on bool) { db.lm.ParkGrants(on) }

// DeliverNextGrant wakes the oldest parked waiter, if any.
func (db *DB) DeliverNextGrant() (lock.TxID, bool) { return db.lm.DeliverNextGrant() }

// Load implements engine.DB: initial rows commit at a fresh timestamp.
func (db *DB) Load(tuples ...data.Tuple) {
	ts := db.oracle.Next()
	defer db.oracle.Done(ts)
	db.store.Load(ts, tuples...)
}

// install commits writes for transaction id at a fresh timestamp — larger
// than every start or commit timestamp issued so far — and returns it once
// the watermark has reached it, so the session's next snapshot contains
// the commit. The store takes ownership of the rows in writes. The caller
// holds the write set's stripe latches, stripes as LockWriteSet returned
// them; install releases them. Done is deferred against the Next: a panic
// inside Install has already lost this commit, and must not also leave a
// hole in the watermark that every later committer would spin on in
// WaitSafe.
func (db *DB) install(id int, writes map[data.Key]data.Row, stripes []int) mv.TS {
	ts := db.oracle.Next()
	func() {
		defer db.oracle.Done(ts) // after the latches are released
		defer db.store.UnlockWriteSet(stripes)
		db.store.InstallAbove(db.oracle.Horizon(), ts, id, writes)
	}()
	db.oracle.WaitSafe(ts)
	return ts
}

// readCommitted reads key at the installed watermark, registered from
// before the timestamp is chosen until the read has returned — unregistered,
// a commit in between could forget the version visible there and the read
// would report a live row missing. It returns the timestamp it read at,
// and the stored row.
func (db *DB) readCommitted(key data.Key) (v mv.Version, ok bool, ts mv.TS) {
	ts = db.oracle.Acquire()
	defer db.oracle.Release(ts)
	v, ok = db.store.ReadAt(key, ts)
	return v, ok, ts
}

// ReadCommittedRow implements engine.DB.
func (db *DB) ReadCommittedRow(key data.Key) data.Row {
	v, ok, _ := db.readCommitted(key)
	if !ok {
		return nil
	}
	return v.Row
}

// Begin implements engine.DB: either multiversion transaction kind, per
// the requested level; a locking level is ErrUnsupported.
func (db *DB) Begin(level engine.Level) (engine.Tx, error) {
	switch level {
	case engine.SnapshotIsolation:
		// Start at the installed watermark, not the allocation counter: a
		// commit timestamp is allocated before its versions finish
		// installing, and a snapshot taken in that window would watch the
		// commit appear piecemeal (and could even slip past
		// first-committer-wins validation).
		return db.beginSI(db.oracle.Acquire()), nil
	case engine.ReadConsistency:
		id := int(db.seq.Add(1))
		db.obs.Begin(id, level.Code())
		t := &RCTx{db: db, id: id, writes: map[data.Key]data.Row{}}
		t.order = t.orderBuf[:0]
		return t, nil
	}
	return nil, fmt.Errorf("%w: %s is not a multiversion level", engine.ErrUnsupported, level)
}

// BeginAsOf starts a read-snapshot SI transaction at an explicit
// historical timestamp — the paper's "time travel — taking a historical
// perspective of the database — while never blocking or being blocked by
// writes". Updates are allowed but will abort at commit if they conflict
// with anything committed after ts.
//
// History is kept only as far back as somebody is reading it (§4.2: the
// system remembers "all updates belonging to any transaction that commits
// after the Start-Timestamp of each active transaction"): a ts below the
// oldest open snapshot fails with engine.ErrSnapshotTooOld rather than
// read newer versions in place of forgotten ones. To travel to a
// timestamp later, hold a snapshot open at or before it.
func (db *DB) BeginAsOf(ts mv.TS) (engine.Tx, error) {
	if !db.oracle.AcquireAt(ts) {
		return nil, fmt.Errorf("%w: as of ts %d, history kept from ts %d",
			engine.ErrSnapshotTooOld, ts, db.oracle.Horizon())
	}
	return db.beginSI(ts), nil
}

// CurrentTS returns the newest fully installed committed timestamp (for
// AsOf bookkeeping).
func (db *DB) CurrentTS() mv.TS { return db.oracle.Safe() }

// beginSI starts an SI transaction at start, which the caller registered
// with the oracle; the transaction releases it when it terminates.
func (db *DB) beginSI(start mv.TS) *SITx {
	id := int(db.seq.Add(1))
	db.obs.Begin(id, engine.SnapshotIsolation.Code())
	t := &SITx{db: db, id: id, start: start, writes: map[data.Key]data.Row{}}
	t.order, t.reads = t.orderBuf[:0], t.readsBuf[:0]
	return t
}

// overlay lays a transaction's own uncommitted writes over base, the
// store's answer to p at the transaction's snapshot, sorted by key. A
// written key leaves base; its new row, if it is not a delete and
// satisfies p, joins the result in key order. order lists the keys of
// writes, each once.
func overlay(p predicate.P, base []data.Tuple, writes map[data.Key]data.Row, order []data.Key) []data.Tuple {
	if len(order) == 0 {
		return base
	}
	var own []data.Tuple
	for _, key := range order {
		if t := (data.Tuple{Key: key, Row: writes[key]}); p.Match(t) {
			own = append(own, t)
		}
	}
	data.SortTuples(own)
	out := make([]data.Tuple, 0, len(base)+len(own))
	for _, b := range base {
		if _, written := writes[b.Key]; written {
			continue
		}
		for len(own) > 0 && own[0].Key < b.Key {
			out = append(out, own[0])
			own = own[1:]
		}
		out = append(out, b)
	}
	return append(out, own...)
}
