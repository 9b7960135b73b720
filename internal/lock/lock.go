// Package lock implements the lock scheduler of the paper's §2.3:
// Read (Share) and Write (Exclusive) locks on data items and on predicates,
// with short or long durations chosen by the isolation level (Table 2).
//
// Conflict rules follow the paper:
//
//   - Two item locks by different transactions on the same item conflict if
//     at least one is a Write lock.
//   - A predicate lock is effectively a lock on all data items satisfying
//     the <search condition>, including phantoms. A predicate lock and an
//     item lock by different transactions conflict (when one is a Write
//     lock) if the item's row image — before or after image for writes,
//     current image for reads — satisfies the predicate.
//   - Two predicate locks by different transactions conflict if one is a
//     Write lock and the predicates are not provably disjoint (a
//     conservative approximation of "there is a possibly phantom data item
//     covered by both", which is the only sound direction: it can only
//     strengthen an isolation level).
//
// Waiting requests are queued first-come-first-served (lock upgrades jump
// the queue, which is the standard way to shrink the upgrade deadlock
// window). Deadlocks are detected immediately on the waits-for graph when a
// request would block; the requester is the victim and receives
// ErrDeadlock. An Observer can be registered to learn, deterministically,
// when a transaction starts waiting — the schedule runner uses this instead
// of timeouts.
//
// # Striping
//
// The item lock tables are sharded: keys hash onto a fixed set of stripes
// (the same scheme as mv.NewStoreShards), each stripe holding its own lock
// table, wait queue and latch, so lock traffic on disjoint key stripes
// never serializes. Predicate locks cannot live in any one stripe — a
// predicate lock conflicts with item locks in every stripe its predicate
// covers — so predicate state sits in a dedicated cross-stripe table
// guarded by a shared-exclusive gate over the stripe set: item operations
// run under the shared side (per-stripe latches provide their mutual
// exclusion), while predicate operations take the exclusive side and with
// it a stable view of every stripe.
//
// The line between the two sides follows §2.3's definition: a predicate
// lock is defined by what it conflicts with, so once granted it is a fixed
// fact that a later item request only has to check. The predicate table
// and its queue are written only under the exclusive gate, so under the
// shared side an item request sees its whole conflict set — same-key
// holders under its stripe latch, plus the held predicates its images
// satisfy. Only a predicate request that is still waiting needs every
// stripe held still, because its conflict set spans them all; so item
// acquires and releases take the exclusive side only while one is queued,
// and ReleaseAll (which may release predicates, unblocking waiters in any
// stripe) only while the releasing transaction holds a predicate lock or
// one is wanted. Held predicates alone leave disjoint-key item traffic,
// and the commits of transactions that hold none, scaling with the stripe
// count.
//
// # Phantom prevention: two protocols
//
// The gated predicate table above is the paper's literal §2.3 mechanism.
// The manager also implements the practical alternative real schedulers
// use: key-range (next-key) locking (keyrange.go) — AcquireRange decomposes
// a scan's phantom protection into per-stripe next-key fragments over the
// existing keys and gaps of its predicate's key range, and AcquireGap gives
// inserts the covering gap's exclusive lock. Fragment conflicts are refined
// by the same before/after-image rule as predicate locks, which makes the
// two protocols behaviorally equivalent (same blocking, same waits-for
// edges, same deadlock victims — the differential fuzzer runs both engine
// families over identical schedules to hold them to that); the difference
// is purely structural: key-range state lives in the stripes, so no path of
// the keyrange protocol ever takes the gate's exclusive side
// (Stats.GateAcquires stays zero) and disjoint-key writers keep scaling
// with the stripe count while a scan is live.
//
// Row locks under a scan differ between the two. A SERIALIZABLE scan on
// the predicate table takes none: every exclusive request, at any key,
// checks the held predicates with its exact images (Images), so a long
// Shared predicate lock already excludes every writer of a row it
// returns, and a Shared row lock on that row could add no conflict and
// no waits-for edge. Keyrange scans keep their row locks: their coverage
// is per-anchor fragments over an install-time key snapshot, kept up by
// inheritance and GC, and the argument is not made for it.
//
// Deadlock detection lives in a standalone waits-for graph (waitsfor.go)
// that collects wait edges from all stripes under its own lock, preserving
// the deterministic requester-is-victim rule across stripes.
//
// # Allocation discipline
//
// An item lock granted at once allocates nothing at steady state. The
// request is a stack value; an item's holders are a small slice of values;
// emptied lock-table entries and per-(stripe, transaction) held-key lists
// are recycled through per-stripe free lists, and per-transaction
// footprints — stripe bitsets, walked in ascending order without a sort —
// through per-slot free lists. Conflict sets are built by append, sort and
// compact, never through a map. A request that has to wait allocates its
// heap copy and its ready channel (plus the waits-for edges it records).
// A granted predicate lock is a value in the predicate table's slice.
// Free lists are bounded (freeListMax) and deterministic: no sync.Pool.
//
// # Latch hierarchy
//
// The manager's internal latches form a fixed acquisition order, declared
// below as machine-readable //isolint:latch-order directives — the single
// source of truth the latchorder analyzer (internal/analysis) enforces at
// lint time. A latch may only be taken while latches earlier in a chain
// are held, never later ones:
//
//   - Manager.gate, the stripe-set shared/exclusive gate, is the outermost:
//     every path enters through it — item and range paths on the shared
//     side, predicate paths (and item paths while a predicate request
//     waits) on the exclusive side.
//   - Manager.rangeMu, the key-range table latch, nests inside the gate's
//     shared side (range ops never take the gate exclusively). A range or
//     gap request is published, drained and decided under one rangeMu
//     hold; item operations take rangeMu only after their stripe work
//     (drainRangeIfWaiters), which is what orders their grants and
//     releases behind a published request's conflict read.
//   - stripe.mu, the per-stripe lock-table latch, nests inside both; the
//     one-stripe-at-a-time discipline means two stripe latches are never
//     held together.
//   - WaitsFor.mu, the waits-for graph latch, is innermost on the main
//     chain: wait edges are recorded while the enclosing table latch
//     pins the queue being inspected.
//   - footprintSlot.mu, the per-transaction footprint latch, nests inside
//     stripe.mu on the release fast path.
//   - Manager.parkMu, the waiter parking latch, is a leaf: parking happens
//     strictly after the tables' latches are dropped, so it is never held
//     together with any of the above.
//
// The free lists have no latch of their own, so the hierarchy names none:
// stripe.itemFree and stripe.heldFree live under stripe.mu (or the
// exclusive gate) with the items and held-key lists they recycle,
// footprintSlot.free under footprintSlot.mu with the footprints, and the
// range-drain scratch (Manager.touched) under Manager.rangeMu.
//
// The same analyzer checks lock/unlock pairing on every control-flow path
// and the install-then-refresh discipline: functions installing granted
// lock state are marked //isolint:grant-mutator, functions recomputing
// waiters' waits-for edges are marked //isolint:waiter-refresh, and every
// path from an install to a return must pass a refresh — the missed
// refreshAllRangeAwareLocked hang the key-range work was reviewed for
// cannot reappear silently.
//
//isolint:latch-order Manager.gate < Manager.rangeMu < stripe.mu < WaitsFor.mu
//isolint:latch-order stripe.mu < footprintSlot.mu
//isolint:latch-leaf Manager.parkMu
//isolint:deterministic
package lock

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"isolevel/internal/data"
	"isolevel/internal/obs"
	"isolevel/internal/predicate"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes: Shared (read) and Exclusive (write).
const (
	S Mode = iota
	X
)

func (m Mode) String() string {
	if m == S {
		return "S"
	}
	return "X"
}

// conflicts reports whether two modes held by different transactions
// conflict: at least one Write lock.
func conflicts(a, b Mode) bool { return a == X || b == X }

// TxID identifies a transaction to the lock manager.
type TxID int

// ErrDeadlock is returned to a requester whose wait would close a cycle in
// the waits-for graph. The requester is always the victim (deterministic).
var ErrDeadlock = errors.New("lock: deadlock detected, requester chosen as victim")

// Observer receives wait-state notifications. Callbacks must be cheap and
// must not call back into the manager: TxWaiting runs with the enqueue
// latch held, which is what makes the event order causal — a request's
// TxWaiting is always observable before the TxGranted that answers it,
// and a grant is observable before the releasing operation that caused it
// returns. The schedule runner's quiescence protocol depends on exactly
// those two orderings.
type Observer interface {
	// TxWaiting fires on the requesting goroutine when tx's request
	// enqueues behind conflicting holders, before the wait begins.
	TxWaiting(tx TxID, on []TxID)
	// TxGranted fires on the granting goroutine when a previously waiting
	// request is granted, before the waiter wakes.
	TxGranted(tx TxID)
}

// Images carries the row images a lock request exposes for predicate
// conflict checks: Before/After for writes (nil Before = insert, nil After
// = delete), Before = current row for reads.
//
// With a row source (SetRowImage), an exclusive request's Before is not
// the caller's: it is the row at the moment the request's grant is
// decided, read under the key's stripe latch, and a hold keeps the one its
// first exclusive grant saw. No other transaction can hold the key
// exclusively then, and an aborting holder restores its undo log before
// it releases, so that row is committed state (or the requester's own
// earlier write, covered by its hold's first image). A before-image taken
// before a wait would instead be whatever the previous holder left, its
// dirty value if it went on to abort.
type Images struct {
	Before, After data.Row
}

// matches reports whether p covers either image at key.
func (im Images) matches(p predicate.P, key data.Key) bool {
	return predicate.MatchEither(p, key, im.Before, im.After)
}

// holder records one transaction's granted item lock.
type holder struct {
	tx   TxID
	mode Mode
	refs int
	im   Images
	// reserved marks a hold installed by the holder's own granted gap
	// request (grantRangeAwareLocked): the gap grant is the key-range
	// protocol's atomic acquisition point, mirroring the predicate twin's
	// single item acquisition, so the item hold is installed together with
	// the gap inheritance — otherwise another writer could take the item
	// between the gap grant and the insert's item acquisition,
	// manufacturing a deadlock cycle the predicate protocol cannot
	// produce. The insert's follow-up AcquireItem consumes the
	// reservation refs-neutrally.
	reserved bool
}

// itemState is the lock table entry for one data item. An item has few
// holders (one writer, or a handful of readers), so they sit in a small
// slice searched linearly; order among them is immaterial, since every
// conflict set is sorted by TxID.
type itemState struct {
	holders []holder
}

// holder returns tx's hold on the item, or nil. The pointer is valid until
// the holders slice next changes length.
func (st *itemState) holder(tx TxID) *holder {
	for i := range st.holders {
		if st.holders[i].tx == tx {
			return &st.holders[i]
		}
	}
	return nil
}

// drop removes tx's hold, zeroing the vacated slot so its row images can
// be collected.
func (st *itemState) drop(tx TxID) {
	for i := range st.holders {
		if st.holders[i].tx == tx {
			last := len(st.holders) - 1
			copy(st.holders[i:], st.holders[i+1:])
			st.holders[last] = holder{}
			st.holders = st.holders[:last]
			return
		}
	}
}

// PredHandle identifies a granted predicate lock for later release.
type PredHandle int64

// predState is a granted predicate lock, an entry of Manager.preds.
type predState struct {
	handle PredHandle
	tx     TxID
	mode   Mode
	pred   predicate.P
}

// request is a lock request. Acquisitions build it as a stack value and
// pass its address down the conflict check and install; only a request
// that must wait is copied to the heap (queued), and only that copy gets
// a ready channel — so an immediate grant allocates nothing.
type request struct {
	tx      TxID
	mode    Mode
	isPred  bool
	isRange bool
	isGap   bool
	key     data.Key
	pred    predicate.P
	// spec is the key range of an isRange request.
	spec    RangeSpec
	im      Images
	upgrade bool
	// recheck marks a RecheckGap request, which the gap statistics do
	// not count.
	recheck bool
	// pending marks a range or gap request published to rangeQ whose
	// wait is not yet decided (acquireRangeAware): its own admission
	// drain may grant it, but no refresh records its edges.
	pending bool
	ready   chan error
	// handle receives the predicate handle on grant; rhandle the range one.
	handle  PredHandle
	rhandle RangeHandle
	seq     int64
	// obsStart is the sink-clock instant this request started waiting
	// (set only when a sink is attached; 0 means never waited).
	obsStart int64
}

// queued returns the heap copy of a request about to wait, with the ready
// channel its grant or cancellation will be sent on.
func (r *request) queued() *request {
	q := *r
	q.ready = make(chan error, 1)
	return &q
}

// StripeStats counts one stripe's item-lock activity — the per-stripe
// contention map of a run.
type StripeStats struct {
	// Grants counts item lock grants (immediate, re-acquired or dequeued)
	// on this stripe.
	Grants int64
	// Waits counts item requests that had to queue on this stripe.
	Waits int64
	// GapGrants / GapWaits count gap-lock acquisitions by inserts whose
	// key lands in this stripe — the per-stripe contention map of
	// key-range phantom prevention.
	GapGrants int64
	GapWaits  int64
}

// Stats counts manager activity for benchmarks and reports.
type Stats struct {
	// Grants is the total number of lock grants, item and predicate.
	Grants int64
	// Waits is the total number of requests that had to queue.
	Waits int64
	// Deadlocks counts requests refused with ErrDeadlock.
	Deadlocks int64
	// Upgrades counts S->X upgrade requests admitted (granted immediately
	// or queued ahead of non-upgrades).
	Upgrades int64
	// PredGrants / PredWaits break out the predicate-lock share of
	// Grants / Waits.
	PredGrants int64
	PredWaits  int64
	// RangeGrants / RangeWaits break out the key-range (next-key) scan
	// locks, and GapGrants / GapWaits the covering-gap acquisitions of
	// inserts under range activity (see keyrange.go).
	RangeGrants int64
	RangeWaits  int64
	GapGrants   int64
	GapWaits    int64
	// FragGCs counts fragment-GC sweeps; FragsReclaimed counts fragments
	// the sweeps deduplicated away while migrating dead anchors.
	FragGCs        int64
	FragsReclaimed int64
	// LiveFragments is a gauge: the key-range fragments held right now,
	// anchored and supremum, inherited copies included.
	LiveFragments int64
	// GateAcquires counts exclusive acquisitions of the cross-stripe
	// predicate gate — the serialization events of predicate-table phantom
	// prevention. Key-range locking never takes the exclusive gate, so on
	// a keyrange engine this stays zero; the bench output prints it as the
	// direct evidence.
	GateAcquires int64
	// PerStripe is the item-lock activity of each stripe, indexed by
	// stripe number.
	PerStripe []StripeStats
}

// DefaultShards is the stripe count of NewManager — the same default as
// the multiversion store's, so one `-shards` knob means the same thing to
// every engine family.
const DefaultShards = 16

const footprintSlots = 64

// freeListMax bounds each recycling free list (per stripe or footprint
// slot), so a burst of live lock state is not hoarded after it drains.
const freeListMax = 64

// stripeSet is a set of stripe indices, one bit each. Walking it word by
// word visits the stripes in ascending order with no sort.
type stripeSet []uint64

func newStripeSet(stripes int) stripeSet { return make(stripeSet, (stripes+63)/64) }

func (s stripeSet) add(i int) { s[i/64] |= 1 << (i % 64) }

func (s stripeSet) reset() { clear(s) }

// appendIndices appends the set's stripe indices to dst, ascending.
func (s stripeSet) appendIndices(dst []int) []int {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
		}
	}
	return dst
}

type footprintSlot struct {
	mu sync.Mutex
	m  map[TxID]stripeSet // tx -> stripes ever touched
	// free holds emptied sets for reuse (under mu, like m).
	free []stripeSet
}

func (m *Manager) footprintSlotOf(tx TxID) *footprintSlot {
	idx := int(tx) % footprintSlots
	if idx < 0 {
		idx += footprintSlots
	}
	return &m.footprints[idx]
}

// noteFootprint records that tx has a lock or a queued request on stripe
// spIdx.
func (m *Manager) noteFootprint(tx TxID, spIdx int) {
	fs := m.footprintSlotOf(tx)
	fs.mu.Lock()
	set, ok := fs.m[tx]
	if !ok {
		if n := len(fs.free); n > 0 {
			set = fs.free[n-1]
			fs.free = fs.free[:n-1]
		} else {
			set = newStripeSet(len(m.stripes))
		}
		if fs.m == nil {
			fs.m = map[TxID]stripeSet{}
		}
		fs.m[tx] = set
	}
	set.add(spIdx)
	fs.mu.Unlock()
}

// takeFootprint clears tx's touched-stripe set and appends its stripe
// indices to dst in ascending order. The order matters: ReleaseAll visits
// stripes in it, so it fixes the order released locks grant queued
// waiters — and with grant parking, the order those waiters later resume.
func (m *Manager) takeFootprint(tx TxID, dst []int) []int {
	fs := m.footprintSlotOf(tx)
	fs.mu.Lock()
	if set, ok := fs.m[tx]; ok {
		delete(fs.m, tx)
		dst = set.appendIndices(dst)
		set.reset()
		if len(fs.free) < freeListMax {
			fs.free = append(fs.free, set)
		}
	}
	fs.mu.Unlock()
	return dst
}

// stripe is one shard of the item lock table: its own lock table, wait
// queue and latch. held lists the keys each transaction holds in this
// stripe, unordered and each once, so ReleaseAll is O(held keys), not
// O(table).
type stripe struct {
	idx   int
	mu    sync.Mutex
	items map[data.Key]*itemState
	held  map[TxID][]data.Key
	queue []*request // waiting item requests: upgrades first, then arrival order

	// itemFree and heldFree recycle emptied lock-table entries and
	// per-transaction held-key lists, so a steady stream of grants and
	// releases allocates neither. Guarded like items and held.
	itemFree []*itemState
	heldFree [][]data.Key

	// frags holds the key-range fragments anchored in this stripe as one
	// slice sorted by anchor key, entries with equal anchors adjacent
	// (keyrange.go). One ordered structure replaces the old
	// map[anchor][]*fragment + mirror index pair: installs merge a sorted
	// per-stripe key run in a single pass, the covering-anchor lookup of a
	// gap check is one binary search, and releases filter in place — no
	// per-anchor map churn, no per-fragment heap nodes.
	//
	// Guard discipline: frags is written only while BOTH rangeMu and this
	// stripe's latch are held, so a reader holding either one sees
	// consistent state — item paths read under the stripe latch they
	// already hold, range paths under rangeMu alone (gapCoverLocked returns
	// zero-copy views on that basis).
	frags []anchoredFrag

	grants int64
	waits  int64
}

// item returns key's lock-table entry, creating it (from the free list
// when possible) if absent. Called with sp latched (or the gate
// exclusive).
func (sp *stripe) item(key data.Key) *itemState {
	st := sp.items[key]
	if st == nil {
		if n := len(sp.itemFree); n > 0 {
			st = sp.itemFree[n-1]
			sp.itemFree = sp.itemFree[:n-1]
		} else {
			st = &itemState{}
		}
		sp.items[key] = st
	}
	return st
}

// dropHolder removes tx's hold from key's entry, deleting and recycling
// the entry when its last holder goes. Called with sp latched (or the gate
// exclusive).
func (sp *stripe) dropHolder(key data.Key, st *itemState, tx TxID) {
	st.drop(tx)
	if len(st.holders) == 0 {
		delete(sp.items, key)
		if len(sp.itemFree) < freeListMax {
			sp.itemFree = append(sp.itemFree, st)
		}
	}
}

// noteHeld records that tx holds key in this stripe — a key it did not
// hold here — reporting whether it is tx's first key here. Called with sp
// latched (or the gate exclusive).
func (sp *stripe) noteHeld(tx TxID, key data.Key) (first bool) {
	hk, ok := sp.held[tx]
	if !ok {
		if n := len(sp.heldFree); n > 0 {
			hk = sp.heldFree[n-1]
			sp.heldFree = sp.heldFree[:n-1]
		}
		first = true
	}
	sp.held[tx] = append(hk, key)
	return first
}

// forgetHeld removes key from tx's held keys here by swapping the last
// key into its place (a transaction releasing early mostly releases what
// it took last, so the search runs from the end). Called with sp latched
// (or the gate exclusive).
func (sp *stripe) forgetHeld(tx TxID, key data.Key) {
	hk, ok := sp.held[tx]
	if !ok {
		return
	}
	for i := len(hk) - 1; i >= 0; i-- {
		if hk[i] == key {
			last := len(hk) - 1
			hk[i] = hk[last]
			hk[last] = ""
			hk = hk[:last]
			break
		}
	}
	if len(hk) == 0 {
		sp.recycleHeld(tx, hk)
		return
	}
	sp.held[tx] = hk
}

// recycleHeld forgets tx's held keys, keeping the emptied slice for reuse
// unless it grew past freeListMax keys. Called with sp latched (or the
// gate exclusive).
func (sp *stripe) recycleHeld(tx TxID, hk []data.Key) {
	delete(sp.held, tx)
	if cap(hk) <= freeListMax && len(sp.heldFree) < freeListMax {
		clear(hk)
		sp.heldFree = append(sp.heldFree, hk[:0])
	}
}

// releaseTxLocked drops every item hold of tx in this stripe (ReleaseAll's
// per-stripe step; the caller drains). Called with sp latched (or the gate
// exclusive).
func (sp *stripe) releaseTxLocked(tx TxID) {
	hk, ok := sp.held[tx]
	if !ok {
		return
	}
	for _, key := range hk {
		if st := sp.items[key]; st != nil {
			sp.dropHolder(key, st, tx)
		}
	}
	sp.recycleHeld(tx, hk)
}

// Manager is a striped lock manager. The zero value is not usable; use
// NewManager or NewManagerShards.
type Manager struct {
	striper data.Striper
	stripes []*stripe

	// gate is the shared-exclusive gate over the stripe set. Item
	// operations hold it shared (stripe latches give them mutual
	// exclusion); predicate operations — whose conflicts span every
	// stripe — hold it exclusively, quiescing the stripes, and so do item
	// operations while a predicate request waits, and ReleaseAll while
	// the releasing transaction holds a predicate lock or one is wanted.
	gate sync.RWMutex

	// preds and predQ are the cross-stripe predicate-lock table (granted
	// locks in grant order) and its wait queue; handles generates
	// PredHandles. All three are written only under the exclusive gate, so
	// under the shared gate they are fixed: an item request reads the held
	// predicates it must not conflict with from preds, and an empty predQ
	// means no item grant or release can change what a predicate request
	// waits on.
	preds   []predState
	predQ   []*request
	handles PredHandle

	// Key-range locking state (keyrange.go). rangeMu orders range
	// operations against each other; item operations never take it from
	// inside a stripe latch, and only at all while range waiters exist
	// (rangeQLen) or fragments are live (rangeActivity). rangeHolds,
	// rangeQ, supFrags, gapStripe, the range/gap counters and every
	// scratch buffer below are touched only under rangeMu; fragments
	// themselves (stripe.frags) are written under rangeMu plus the
	// stripe's latch and readable under either (see the stripe fields).
	rangeMu       sync.Mutex
	rangeQ        []*request
	rangeQLen     atomic.Int64
	rangeActivity atomic.Int64
	rangeHolds    map[TxID]map[RangeHandle]*rangeHold
	rangeHandles  RangeHandle
	supFrags      []fragment
	gapStripe     []gapStripeStats
	rangeGrants   int64
	rangeWaits    int64
	gapGrants     int64
	gapWaits      int64

	// rowPresent, when set (SetRowPresent), lets the fragment GC decide
	// whether an anchor key still has a row in the store. Nil disables the
	// sweep. inheritsSinceGC counts fragment inheritances since the last
	// sweep; fragGCs / fragsReclaimed count sweeps and deduplicated-away
	// fragments. All under rangeMu.
	rowPresent      func(data.Key) bool
	inheritsSinceGC int
	// rowImage, when set (SetRowImage), is the row source exclusive
	// requests read their before-image from (exactBeforeLocked).
	rowImage       func(data.Key) data.Row
	fragGCs        int64
	fragsReclaimed int64

	// Install/release scratch, reused across range operations so a
	// steady-state scan install allocates nothing: per-stripe anchor
	// buckets, the per-stripe merged run, in-range item keys, existing
	// in-range anchors, densify's new anchors and gap cover, fragment copy
	// buffers (inheritance and GC), the anchor-snapshot run buffer, GC
	// candidate keys, and the rangeHold free-list; and for the range-aware
	// drain, the set of stripes a release touched (touchedLocked) and its
	// index list. All under rangeMu — no latch of their own.
	touched      stripeSet
	drainStripes []int
	runBuckets   [][]data.Key
	mergeRun     []data.Key
	itemKeys     []data.Key
	anchorKeys   []data.Key
	newAnchors   []data.Key
	cover        []coverFrag
	fragCopy     []fragment
	snapRuns     data.KeyRuns
	gcKeys       []data.Key
	holdFree     []*rangeHold

	gateAcquires atomic.Int64

	wf *WaitsFor

	// footprints records, per transaction, the set of stripes where the
	// transaction has ever held or queued an item lock, so ReleaseAll
	// visits only those stripes instead of all of them. Entries are
	// add-only until ReleaseAll deletes them (a superset is always safe).
	// Slots are striped by transaction id: transactions are
	// single-goroutine, so distinct transactions rarely share a slot latch.
	footprints [footprintSlots]footprintSlot

	seq      atomic.Int64
	observer Observer

	// obs is the optional observability sink (SetObs). Nil — the default —
	// keeps every hook a single pointer check: no clock reads, no events,
	// no histogram traffic on the hot paths.
	obs *obs.Sink

	// Grant parking (ParkGrants/DeliverNextGrant): withheld waiter
	// wake-ups, FIFO in grant-decision order.
	parkMu  sync.Mutex
	parking bool
	parked  []parkedSend

	deadlocks  atomic.Int64
	upgrades   atomic.Int64
	predGrants int64 // under the exclusive gate
	predWaits  int64 // under the exclusive gate
}

// NewManager returns an empty lock manager with DefaultShards stripes.
func NewManager() *Manager { return NewManagerShards(DefaultShards) }

// NewManagerShards returns an empty lock manager striped across n lock
// tables (n < 1 is treated as 1; n = 1 reproduces the old single-latch
// behavior and is the baseline of the shard-sweep benchmarks).
func NewManagerShards(n int) *Manager {
	striper := data.NewStriper(n)
	m := &Manager{
		striper:    striper,
		stripes:    make([]*stripe, striper.Count()),
		gapStripe:  make([]gapStripeStats, striper.Count()),
		touched:    newStripeSet(striper.Count()),
		runBuckets: make([][]data.Key, striper.Count()),
		wf:         NewWaitsFor(),
	}
	for i := range m.stripes {
		m.stripes[i] = &stripe{
			idx:   i,
			items: map[data.Key]*itemState{},
			held:  map[TxID][]data.Key{},
		}
	}
	return m
}

// ShardCount returns the number of lock-table stripes.
func (m *Manager) ShardCount() int { return len(m.stripes) }

func (m *Manager) stripeIndex(key data.Key) int { return m.striper.Index(key) }

func (m *Manager) stripeOf(key data.Key) *stripe {
	return m.stripes[m.stripeIndex(key)]
}

// SetObserver installs the wait observer. Must be called before concurrent
// use.
func (m *Manager) SetObserver(o Observer) { m.observer = o }

// SetObs attaches an observability sink: wait/grant/upgrade/GC-sweep/
// deadlock events for its flight recorder, wait-latency and
// gate/rangeMu-hold histograms. Nil detaches. Must be called before
// concurrent use, like SetObserver.
func (m *Manager) SetObs(s *obs.Sink) { m.obs = s }

// obsClass maps a request to its event lock class.
func obsClass(req *request) string {
	switch {
	case req.isPred:
		return obs.ClassPred
	case req.isRange:
		return obs.ClassRange
	case req.isGap:
		return obs.ClassGap
	}
	return obs.ClassItem
}

// obsWait stamps req's wait start on the sink clock and records the wait
// event. Called with the enqueue latch still held, before notifyWaiting:
// an observer may let another goroutine run the moment it hears of the
// wait (the schedule runner dispatches its next op), so a waiting path
// reads the sink clock — this event, and its latch-hold histogram — only
// before it notifies, and flight-recorder order and ticks are the
// observer's causal order (the sink's internal lock is strictly innermost
// — it never calls back into the manager).
func (m *Manager) obsWait(req *request, on []TxID, stripe int) {
	if m.obs == nil {
		return
	}
	req.obsStart = m.obs.Now()
	first := TxID(0)
	if len(on) > 0 {
		first = on[0]
	}
	m.obs.Wait(obsClass(req), int(req.tx), string(req.key), stripe, int(first))
}

// obsGranted records a formerly waiting request's grant event and its
// wait latency. Called from the grant-notification paths, outside all
// manager latches.
func (m *Manager) obsGranted(req *request) {
	if m.obs == nil || req.obsStart == 0 {
		return
	}
	stripe := -1
	if !req.isPred && !req.isRange {
		stripe = m.stripeIndex(req.key)
	}
	m.obs.Granted(obsClass(req), int(req.tx), string(req.key), stripe, req.obsStart)
}

// obsDeadlock records tx's selection as deadlock victim, recovering the
// waits-for cycle that refusing its request avoided. Called at the
// AddWaiter-refusal sites with the enclosing table latch still held (the
// graph still holds the refusing state there, so the recovered cycle is
// exact).
func (m *Manager) obsDeadlock(tx TxID, on []TxID) {
	if m.obs == nil {
		return
	}
	cycle := m.wf.CycleFrom(tx, on)
	out := make([]int, len(cycle))
	for i, t := range cycle {
		out[i] = int(t)
	}
	m.obs.Deadlock(int(tx), out)
}

// SetRowPresent gives the fragment GC its liveness oracle: f reports
// whether a row currently exists at a key. With it set, drains
// periodically sweep dead anchors — anchor keys with no row, no item-lock
// entry and no queued item request — migrating their fragments to the next
// live anchor (or the supremum), so inherited fragments from insert storms
// under a long scan don't accumulate until ReleaseAll. Nil (the default)
// disables the sweep. Must be called before concurrent use.
func (m *Manager) SetRowPresent(f func(data.Key) bool) { m.rowPresent = f }

// SetRowImage gives exclusive requests their row source: f returns the
// row currently at a key (nil when absent). With it set, an exclusive
// request's before-image is f's answer at the moment its grant is decided
// (see Images), whatever Before the caller passed. f is called under a
// stripe latch, so it must not call back into the manager. Nil (the
// default) keeps the caller's images. Must be called before concurrent
// use.
func (m *Manager) SetRowImage(f func(data.Key) data.Row) { m.rowImage = f }

// exactBeforeLocked sets an exclusive request's before-image from the row
// source: the row at its key now, or — when the requester already holds
// the key exclusively — its hold's first before-image, which the install
// keeps anyway (mergeImages). A no-op for shared requests and without a
// row source. Called with key's stripe latched; st is key's entry, nil
// when absent.
func (m *Manager) exactBeforeLocked(st *itemState, req *request) {
	if req.mode != X || m.rowImage == nil {
		return
	}
	if st != nil {
		if h := st.holder(req.tx); h != nil && h.mode == X {
			req.im.Before = h.im.Before
			return
		}
	}
	req.im.Before = m.rowImage(req.key)
}

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats {
	m.gate.RLock()
	defer m.gate.RUnlock()
	st := Stats{
		Deadlocks:    m.deadlocks.Load(),
		Upgrades:     m.upgrades.Load(),
		PredGrants:   m.predGrants,
		PredWaits:    m.predWaits,
		GateAcquires: m.gateAcquires.Load(),
		PerStripe:    make([]StripeStats, len(m.stripes)),
	}
	m.rangeMu.Lock()
	st.RangeGrants, st.RangeWaits = m.rangeGrants, m.rangeWaits
	st.GapGrants, st.GapWaits = m.gapGrants, m.gapWaits
	st.FragGCs, st.FragsReclaimed = m.fragGCs, m.fragsReclaimed
	st.LiveFragments = int64(m.liveFragmentsLocked())
	for i := range m.gapStripe {
		st.PerStripe[i].GapGrants = m.gapStripe[i].grants
		st.PerStripe[i].GapWaits = m.gapStripe[i].waits
	}
	m.rangeMu.Unlock()
	for i, sp := range m.stripes {
		sp.mu.Lock()
		st.PerStripe[i].Grants = sp.grants
		st.PerStripe[i].Waits = sp.waits
		sp.mu.Unlock()
		st.Grants += st.PerStripe[i].Grants
		st.Waits += st.PerStripe[i].Waits
	}
	st.Grants += st.PredGrants + st.RangeGrants + st.GapGrants
	st.Waits += st.PredWaits + st.RangeWaits + st.GapWaits
	return st
}

// AcquireItem acquires an item lock for tx on key with the given mode and
// row images, blocking until granted. Re-acquisition by the same holder is
// reference-counted; an S→X upgrade waits only on other holders and jumps
// the queue. Returns ErrDeadlock if waiting would close a waits-for cycle.
func (m *Manager) AcquireItem(tx TxID, key data.Key, mode Mode, im Images) error {
	m.gate.RLock()
	if len(m.predQ) == 0 {
		// Striped path: no predicate request waits, so the request's
		// conflicts are same-key item locks in key's stripe and the held
		// predicates, which the shared gate keeps fixed.
		return m.acquireItemStriped(tx, key, mode, im)
	}
	m.gate.RUnlock()
	return m.acquireItemGated(tx, key, mode, im)
}

// acquireItemStriped is the shared-gate item path, taken while no
// predicate request waits. A grant then makes no waiter grantable — item
// waiters wait on same-key holders' modes and on held predicates, and a
// grant relaxes neither — so refreshing the stripe's wait edges stands in
// for a drain. Called with the gate held shared; releases it before
// blocking or returning.
func (m *Manager) acquireItemStriped(tx TxID, key data.Key, mode Mode, im Images) error {
	sp := m.stripeOf(key)
	sp.mu.Lock()
	st := sp.item(key)
	h := st.holder(tx)
	if h != nil && h.reserved {
		// Consume the reservation the transaction's own gap grant
		// installed: the hold already exists and was counted as one
		// grant, so this follow-up acquisition only merges the images
		// and finalizes the mode — refs-neutral, and no drain: the
		// images equal the ones the grant already refreshed with.
		h.reserved = false
		if mode == X {
			h.mode = X
		}
		h.im = mergeImages(h.im, im)
		sp.mu.Unlock()
		m.gate.RUnlock()
		return nil
	}
	// Covering re-acquires (the holder's mode already covers the request)
	// deliberately take the full conflict path: the new images may extend
	// the holder's fragment-conflict surface — a delete whose images
	// matched no scanned range grants the X lock, and the same
	// transaction's re-insert of the key can land inside one — so every
	// acquisition sweeps conflicts with its own images before the install
	// merges them (installItemLocked turns the covering case into a
	// refs++ merge).
	req := request{tx: tx, mode: mode, key: key, im: im, seq: m.seq.Add(1),
		upgrade: h != nil && h.mode == S && mode == X}
	on := m.itemConflictHoldersLocked(sp, &req)
	if len(on) == 0 {
		m.countUpgrade(&req)
		m.installItemLocked(sp, &req)
		// The fresh holder may extend the conflict sets of requests
		// already queued on this stripe; keep their wait edges current.
		m.refreshStripeWaitersLocked(sp)
		sp.mu.Unlock()
		// ... and of queued range and gap requests: range conflicts span
		// every stripe's exclusive holders, and a queued gap request
		// blocks on the item holders at its key in any mode — so even an
		// S grant can extend a gap waiter's conflict set, and its wait
		// edges must be recomputed before the next deadlock decision. A
		// re-acquire's image merge can also narrow a range waiter's
		// conflict set (the after-image is replaced, not accumulated).
		// One atomic load when no range waiter exists.
		granted := m.drainRangeIfWaiters()
		m.gate.RUnlock()
		m.notifyGranted(granted)
		return nil
	}
	if !m.wf.AddWaiter(tx, on) {
		m.deadlocks.Add(1)
		m.obsDeadlock(tx, on)
		sp.mu.Unlock()
		m.gate.RUnlock()
		return ErrDeadlock
	}
	q := req.queued()
	m.countUpgrade(q)
	enqueue(&sp.queue, q)
	m.noteFootprint(tx, sp.idx)
	sp.waits++
	m.obsWait(q, on, sp.idx)
	m.notifyWaiting(tx, on)
	sp.mu.Unlock()
	m.gate.RUnlock()
	return m.await(q)
}

// acquireItemGated is the exclusive-gate item path, used while a predicate
// request waits: the request's grant or its image merge can change that
// waiter's conflict set, so the grant is followed by a drain over every
// stripe and the predicate queue.
func (m *Manager) acquireItemGated(tx TxID, key data.Key, mode Mode, im Images) error {
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	sp := m.stripeOf(key)
	st := sp.item(key)
	h := st.holder(tx)
	if h != nil && h.reserved {
		// Reservations are installed only by gap grants, which exist only
		// while the striped (range) protocol is active — but consume one
		// here too rather than let the flag leak into a refs miscount.
		h.reserved = false
		if mode == X {
			h.mode = X
		}
		h.im = mergeImages(h.im, im)
		m.gate.Unlock()
		m.obs.RecordGateHold(gs)
		return nil
	}
	// Covering re-acquires flow through the full conflict sweep with the
	// request's own images: a transaction that deleted a row (images
	// matching no held predicate) and then re-creates it must have the
	// new after-image checked against the predicate table — the earlier
	// grant proved nothing about this write. installItemLocked merges the
	// covering case into a refs++ re-acquire on grant.
	req := request{tx: tx, mode: mode, key: key, im: im, seq: m.seq.Add(1),
		upgrade: h != nil && h.mode == S && mode == X}
	on := m.conflictHoldersLocked(&req)
	if len(on) == 0 {
		m.countUpgrade(&req)
		m.installItemLocked(sp, &req)
		// A re-acquire's image merge can narrow as well as widen a
		// predicate waiter's conflict set (the after-image is replaced,
		// not accumulated), so a full drain — not just an edge refresh —
		// keeps a now-grantable waiter from stranding in the queue.
		granted := m.drainAllLocked()
		m.gate.Unlock()
		m.obs.RecordGateHold(gs)
		m.notifyGranted(granted)
		return nil
	}
	if !m.wf.AddWaiter(tx, on) {
		m.deadlocks.Add(1)
		m.obsDeadlock(tx, on)
		m.gate.Unlock()
		m.obs.RecordGateHold(gs)
		return ErrDeadlock
	}
	q := req.queued()
	m.countUpgrade(q)
	enqueue(&sp.queue, q)
	m.noteFootprint(tx, sp.idx)
	sp.waits++
	m.obsWait(q, on, sp.idx)
	m.obs.RecordGateHold(gs)
	m.notifyWaiting(tx, on)
	m.gate.Unlock()
	return m.await(q)
}

// AcquirePred acquires a predicate lock for tx, blocking until granted.
// The returned handle releases this specific lock. Predicate requests
// always take the exclusive gate: their conflicts span every stripe.
func (m *Manager) AcquirePred(tx TxID, p predicate.P, mode Mode) (PredHandle, error) {
	req := request{tx: tx, mode: mode, isPred: true, pred: p, seq: m.seq.Add(1)}
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	on := m.conflictHoldersLocked(&req)
	if len(on) == 0 {
		m.installPredLocked(&req)
		m.refreshAllWaitersLocked()
		m.gate.Unlock()
		m.obs.RecordGateHold(gs)
		return req.handle, nil
	}
	if !m.wf.AddWaiter(tx, on) {
		m.deadlocks.Add(1)
		m.obsDeadlock(tx, on)
		m.gate.Unlock()
		m.obs.RecordGateHold(gs)
		return 0, ErrDeadlock
	}
	q := req.queued()
	m.predQ = append(m.predQ, q)
	m.predWaits++
	m.obsWait(q, on, -1)
	m.obs.RecordGateHold(gs)
	m.notifyWaiting(tx, on)
	m.gate.Unlock()
	if err := m.await(q); err != nil {
		return 0, err
	}
	return q.handle, nil
}

// countUpgrade bumps the upgrade counter for admitted upgrade requests
// (granted immediately or enqueued; deadlock victims are not admitted).
func (m *Manager) countUpgrade(req *request) {
	if req.upgrade {
		m.upgrades.Add(1)
		if m.obs != nil {
			m.obs.Upgrade(int(req.tx), string(req.key), m.stripeIndex(req.key))
		}
	}
}

// notifyWaiting emits the observer's TxWaiting. Called with the request's
// enqueue latch still held, so the emission is strictly ordered before
// any grant of the request: a drain must take the same latch first.
func (m *Manager) notifyWaiting(tx TxID, on []TxID) {
	if m.observer != nil {
		m.observer.TxWaiting(tx, on)
	}
}

// await blocks the requesting goroutine on its queued request. TxWaiting
// was emitted at enqueue (under the latch); TxGranted is emitted by the
// granting goroutine in notifyGranted — so a single-channel observer sees
// wait and grant events in their true causal order.
func (m *Manager) await(req *request) error {
	return <-req.ready
}

// itemConflictHolders returns the distinct transactions whose granted
// same-item locks conflict with req, sorted. Called with the item's stripe
// latched (or the gate exclusive).
func itemConflictHolders(st *itemState, req *request) []TxID {
	if st == nil {
		return nil
	}
	var out []TxID
	for i := range st.holders {
		h := &st.holders[i]
		if h.tx == req.tx || !conflicts(req.mode, h.mode) {
			continue
		}
		out = append(out, h.tx)
	}
	slices.Sort(out)
	return out
}

// conflictHoldersLocked returns the distinct transactions whose granted
// locks — item locks in any stripe and predicate locks — conflict with
// req, sorted. Called with the gate held exclusively.
func (m *Manager) conflictHoldersLocked(req *request) []TxID {
	if !req.isPred {
		return m.itemConflictHoldersLocked(m.stripeOf(req.key), req)
	}
	var out []TxID
	// Predicate request vs item holders in every stripe.
	for _, sp := range m.stripes {
		//isolint:ordered the collected holders are sorted and deduplicated before return
		for key, st := range sp.items {
			for i := range st.holders {
				h := &st.holders[i]
				if h.tx == req.tx || !conflicts(req.mode, h.mode) {
					continue
				}
				if h.im.matches(req.pred, key) {
					out = append(out, h.tx)
				}
			}
		}
	}
	// Predicate request vs predicate holders.
	for i := range m.preds {
		ps := &m.preds[i]
		if ps.tx == req.tx || !conflicts(req.mode, ps.mode) {
			continue
		}
		if !predicate.DisjointWith(req.pred, ps.pred) {
			out = append(out, ps.tx)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// installItemLocked installs req's item lock in sp and returns the hold
// (valid until the item's holders next change). Called with sp latched
// (or the gate exclusive).
//
//isolint:grant-mutator
func (m *Manager) installItemLocked(sp *stripe, req *request) *holder {
	sp.grants++
	st := sp.item(req.key)
	if h := st.holder(req.tx); h != nil {
		// Upgrade or re-acquire.
		if req.mode == X && h.mode == S {
			// The first exclusive grant: the hold's before-image is the
			// write's, not the one its read was requested with.
			h.im.Before = req.im.Before
		}
		if req.mode == X {
			h.mode = X
		}
		h.refs++
		h.im = mergeImages(h.im, req.im)
		return h
	}
	st.holders = append(st.holders, holder{tx: req.tx, mode: req.mode, refs: 1, im: req.im})
	if sp.noteHeld(req.tx, req.key) {
		m.noteFootprint(req.tx, sp.idx)
	}
	return &st.holders[len(st.holders)-1]
}

// installPredLocked installs req's predicate lock and assigns its handle.
// Called with the gate held exclusively.
//
//isolint:grant-mutator
func (m *Manager) installPredLocked(req *request) {
	m.predGrants++
	m.handles++
	req.handle = m.handles
	m.preds = append(m.preds, predState{handle: req.handle, tx: req.tx, mode: req.mode, pred: req.pred})
}

// enqueue inserts req into q: upgrades go before non-upgrades (but after
// earlier upgrades), everything else in arrival order.
func enqueue(q *[]*request, req *request) {
	if !req.upgrade {
		*q = append(*q, req)
		return
	}
	idx := 0
	for idx < len(*q) && (*q)[idx].upgrade {
		idx++
	}
	*q = append(*q, nil)
	copy((*q)[idx+1:], (*q)[idx:])
	(*q)[idx] = req
}

// mergeImages keeps the earliest before-image and the latest after-image,
// widening predicate conflict coverage across multiple writes of the same
// item by one transaction. (An upgrade from Shared first takes the
// exclusive request's before-image: installItemLocked.)
func mergeImages(old, new Images) Images {
	out := old
	if out.Before == nil {
		out.Before = new.Before
	}
	if new.After != nil {
		out.After = new.After
	}
	return out
}

// dropItemLocked removes one reference of tx's hold on key. Called with
// the key's stripe latched (or the gate exclusive).
func (m *Manager) dropItemLocked(sp *stripe, tx TxID, key data.Key) {
	st := sp.items[key]
	if st == nil {
		return
	}
	h := st.holder(tx)
	if h == nil {
		return
	}
	h.refs--
	if h.refs > 0 {
		return
	}
	sp.dropHolder(key, st, tx)
	sp.forgetHeld(tx, key)
}

// ReleaseItem decrements tx's hold on key, removing the lock at zero and
// draining the stripe's wait queue.
func (m *Manager) ReleaseItem(tx TxID, key data.Key) {
	m.gate.RLock()
	if len(m.predQ) == 0 {
		// No predicate request waits, so a one-key release can unblock
		// only waiters in key's stripe (held predicates stay held), and
		// draining that stripe grants what a drain of every stripe would.
		if m.rangeActivity.Load() != 0 {
			// Range activity: the release may unblock a queued range or
			// gap request as well as this stripe's item waiters; drain
			// both in global arrival order (see drainRangeLocked), the
			// order the predicate twin's gated drain uses while a
			// predicate request waits.
			m.rangeMu.Lock()
			sp := m.stripeOf(key)
			sp.mu.Lock()
			m.dropItemLocked(sp, tx, key)
			sp.mu.Unlock()
			touched := m.touchedLocked()
			touched.add(sp.idx)
			granted := m.drainRangeLocked(touched)
			m.rangeMu.Unlock()
			m.gate.RUnlock()
			m.notifyGranted(granted)
			return
		}
		sp := m.stripeOf(key)
		sp.mu.Lock()
		m.dropItemLocked(sp, tx, key)
		granted := m.drainStripeLocked(sp)
		sp.mu.Unlock()
		// A range or gap request may have been published after the
		// activity check above (see drainRangeIfWaiters).
		granted = append(granted, m.drainRangeIfWaiters()...)
		m.gate.RUnlock()
		m.notifyGranted(granted)
		return
	}
	m.gate.RUnlock()
	// A predicate request waits: the release may unblock it, so the drain
	// needs the cross-stripe view.
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	m.dropItemLocked(m.stripeOf(key), tx, key)
	granted := m.drainAllLocked()
	m.gate.Unlock()
	m.obs.RecordGateHold(gs)
	m.notifyGranted(granted)
}

// ReleasePred releases the predicate lock identified by handle.
func (m *Manager) ReleasePred(tx TxID, handle PredHandle) {
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	for i := range m.preds {
		if m.preds[i].handle == handle {
			if m.preds[i].tx == tx {
				m.preds = slices.Delete(m.preds, i, i+1)
			}
			break
		}
	}
	granted := m.drainAllLocked()
	m.gate.Unlock()
	m.obs.RecordGateHold(gs)
	m.notifyGranted(granted)
}

// ReleaseAll releases every lock held by tx (commit/abort time: the end of
// all long-duration locks) and cancels any of tx's queued requests.
func (m *Manager) ReleaseAll(tx TxID) {
	m.gate.RLock()
	if len(m.predQ) == 0 && !m.holdsPredLocked(tx) {
		if m.rangeActivity.Load() != 0 {
			m.releaseAllRangeAware(tx)
			return
		}
		// Striped path: tx holds no predicate and none is wanted, so its
		// release can unblock only item waiters on its own keys. Those
		// wait on same-key holders and on held predicates, which the
		// shared gate keeps fixed (predQ cannot grow under it either), so
		// each touched stripe can be released and drained independently:
		// per-stripe drains see every consequence of this stripe's
		// releases, and untouched stripes (the footprint tracks them) need
		// no visit at all.
		m.wf.Remove(tx)
		var granted, cancelled []*request
		var buf [DefaultShards]int
		for _, spIdx := range m.takeFootprint(tx, buf[:0]) {
			sp := m.stripes[spIdx]
			sp.mu.Lock()
			sp.releaseTxLocked(tx)
			cancelled = append(cancelled, cancelQueued(&sp.queue, tx, m.wf)...)
			granted = append(granted, m.drainStripeLocked(sp)...)
			sp.mu.Unlock()
		}
		if len(m.preds) != 0 {
			// Beside held predicates, wake the grantees in global arrival
			// order, as the gated drain did and as keyrange's twin (whose
			// live fragments route it through drainRangeLocked) does.
			// Stripes share no waiter, so the per-stripe drains decided
			// the same grants; only the wake-up order, which grant parking
			// replays, is left to fix.
			slices.SortFunc(granted, grantOrder)
		}
		// As in ReleaseItem: a range request may have been published since.
		granted = append(granted, m.drainRangeIfWaiters()...)
		m.gate.RUnlock()
		m.notifyCancelled(cancelled, tx)
		m.notifyGranted(granted)
		return
	}
	m.gate.RUnlock()

	// tx holds a predicate, or one is wanted: tx's predicates and its keys
	// in every stripe go in one step, then one drain over every stripe in
	// global arrival order, the order keyrange's drainRangeLocked keeps
	// too.
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	m.wf.Remove(tx)
	var cancelled []*request
	var buf [DefaultShards]int
	for _, spIdx := range m.takeFootprint(tx, buf[:0]) {
		sp := m.stripes[spIdx]
		sp.releaseTxLocked(tx)
		cancelled = append(cancelled, cancelQueued(&sp.queue, tx, m.wf)...)
	}
	m.preds = slices.DeleteFunc(m.preds, func(ps predState) bool { return ps.tx == tx })
	cancelled = append(cancelled, cancelQueued(&m.predQ, tx, m.wf)...)
	granted := m.drainAllLocked()
	m.gate.Unlock()
	m.obs.RecordGateHold(gs)
	m.notifyCancelled(cancelled, tx)
	m.notifyGranted(granted)
	if m.rangeActivity.Load() != 0 {
		// Defensive: a manager mixing predicate and key-range protocols
		// (no engine does) must still not leak tx's range state.
		m.gate.RLock()
		m.rangeMu.Lock()
		touched := m.touchedLocked()
		rangeCancelled := m.releaseAllRangesLocked(tx, touched)
		rangeGranted := m.drainRangeLocked(touched)
		m.rangeMu.Unlock()
		m.gate.RUnlock()
		m.notifyCancelled(rangeCancelled, tx)
		m.notifyGranted(rangeGranted)
	}
}

// cancelQueued removes tx's requests from q (defensive; the engines never
// abort a transaction with an in-flight request) and clears their wait
// edges.
func cancelQueued(q *[]*request, tx TxID, wf *WaitsFor) []*request {
	var cancelled []*request
	keep := (*q)[:0]
	for _, r := range *q {
		if r.tx == tx {
			cancelled = append(cancelled, r)
		} else {
			keep = append(keep, r)
		}
	}
	*q = keep
	if len(cancelled) > 0 {
		wf.Remove(tx)
	}
	return cancelled
}

// drainStripeLocked grants sp's queued requests that no longer conflict,
// upgrades first then arrival order, refreshes the wait edges of the
// requests that stay blocked, and returns the granted ones for
// notification outside the latches. Called with sp latched under the
// shared gate and no predicate request queued (so only sp's waiters can
// become grantable).
func (m *Manager) drainStripeLocked(sp *stripe) []*request {
	var granted []*request
	for {
		progress := false
		var keep []*request
		for _, r := range sp.queue {
			if len(m.itemConflictHoldersLocked(sp, r)) == 0 {
				m.installItemLocked(sp, r)
				m.wf.Remove(r.tx)
				granted = append(granted, r)
				progress = true
			} else {
				keep = append(keep, r)
			}
		}
		sp.queue = keep
		if !progress {
			break
		}
	}
	m.refreshStripeWaitersLocked(sp)
	return granted
}

// refreshStripeWaitersLocked recomputes the wait edges of every request
// still queued on sp. Called with sp latched under the shared gate.
//
//isolint:waiter-refresh
func (m *Manager) refreshStripeWaitersLocked(sp *stripe) {
	for _, r := range sp.queue {
		m.wf.Refresh(r.tx, m.itemConflictHoldersLocked(sp, r))
	}
}

// drainAllLocked grants queued requests across every stripe and the
// predicate queue, in global upgrade-first arrival order, then refreshes
// the wait edges of everything still blocked. Called with the gate held
// exclusively.
func (m *Manager) drainAllLocked() []*request {
	var granted []*request
	for {
		progress := false
		cands := append([]*request(nil), m.predQ...)
		for _, sp := range m.stripes {
			cands = append(cands, sp.queue...)
		}
		slices.SortFunc(cands, grantOrder)
		for _, r := range cands {
			if len(m.conflictHoldersLocked(r)) != 0 {
				continue
			}
			if r.isPred {
				m.installPredLocked(r)
				removeRequest(&m.predQ, r)
			} else {
				m.installItemLocked(m.stripeOf(r.key), r)
				removeRequest(&m.stripeOf(r.key).queue, r)
			}
			m.wf.Remove(r.tx)
			granted = append(granted, r)
			progress = true
		}
		if !progress {
			break
		}
	}
	m.refreshAllWaitersLocked()
	return granted
}

// grantOrder orders drain candidates: upgrades first, then arrival (seq is
// unique, so the order is total).
func grantOrder(a, b *request) int {
	if a.upgrade != b.upgrade {
		if a.upgrade {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.seq, b.seq)
}

// grantsBefore reports whether r comes before best in grant order (any
// request does when best is nil).
func grantsBefore(r, best *request) bool { return best == nil || grantOrder(r, best) < 0 }

// refreshAllWaitersLocked recomputes the wait edges of every queued
// request, item and predicate. Called with the gate held exclusively.
//
//isolint:waiter-refresh
func (m *Manager) refreshAllWaitersLocked() {
	for _, sp := range m.stripes {
		for _, r := range sp.queue {
			m.wf.Refresh(r.tx, m.conflictHoldersLocked(r))
		}
	}
	for _, r := range m.predQ {
		m.wf.Refresh(r.tx, m.conflictHoldersLocked(r))
	}
}

func removeRequest(q *[]*request, req *request) {
	for i, r := range *q {
		if r == req {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// notifyGranted wakes the granted requests, emitting the observer's
// TxGranted from this — the granting — goroutine *before* each waiter
// wakes. The ordering matters to the schedule runner's quiescence
// protocol: a grant caused by a release is observable in the event queue
// before the releasing engine operation returns, so the runner can settle
// every resumed transaction before dispatching another step. In parked
// mode the wake-up is withheld instead (see ParkGrants). Called outside
// all latches.
func (m *Manager) notifyGranted(granted []*request) {
	for _, r := range granted {
		// Grant events are recorded at grant decision, not delivery: in
		// parked mode the lock state is already installed here, only the
		// wake-up is withheld.
		m.obsGranted(r)
		if m.park(parkedSend{req: r}) {
			continue
		}
		if m.observer != nil {
			m.observer.TxGranted(r.tx)
		}
		r.ready <- nil
	}
}

func (m *Manager) notifyCancelled(cancelled []*request, tx TxID) {
	for _, r := range cancelled {
		err := fmt.Errorf("lock: request cancelled by ReleaseAll(T%d)", tx)
		if m.park(parkedSend{req: r, err: err}) {
			continue
		}
		r.ready <- err
	}
}

// parkedSend is one withheld waiter wake-up: a grant (err == nil) or a
// cancellation.
type parkedSend struct {
	req *request
	err error
}

// ParkGrants switches grant parking on or off. While parked, waiters whose
// requests are granted (the lock *state* is installed normally, under the
// latches) are not woken; their wake-ups queue FIFO until DeliverNextGrant
// releases them one at a time. The schedule runner uses this to guarantee
// that at most one engine operation executes at any moment — a mid-op
// lock release can no longer resume a waiter whose continuation would race
// the remainder of the releasing operation, which is the last source of
// scheduling-dependent outcomes in scripted runs. Disabling flushes any
// still-parked wake-ups.
func (m *Manager) ParkGrants(on bool) {
	m.parkMu.Lock()
	m.parking = on
	var flush []parkedSend
	if !on {
		flush = m.parked
		m.parked = nil
	}
	m.parkMu.Unlock()
	for _, p := range flush {
		m.deliverParked(p)
	}
}

// DeliverNextGrant wakes the oldest parked waiter, reporting its
// transaction and whether one was pending.
func (m *Manager) DeliverNextGrant() (TxID, bool) {
	m.parkMu.Lock()
	if len(m.parked) == 0 {
		m.parkMu.Unlock()
		return 0, false
	}
	p := m.parked[0]
	m.parked = m.parked[1:]
	m.parkMu.Unlock()
	m.deliverParked(p)
	return p.req.tx, true
}

func (m *Manager) deliverParked(p parkedSend) {
	if p.err == nil && m.observer != nil {
		m.observer.TxGranted(p.req.tx)
	}
	p.req.ready <- p.err
}

func (m *Manager) park(p parkedSend) bool {
	m.parkMu.Lock()
	defer m.parkMu.Unlock()
	if !m.parking {
		return false
	}
	m.parked = append(m.parked, p)
	return true
}

// Holding reports whether tx currently holds an item lock on key, and its
// mode.
func (m *Manager) Holding(tx TxID, key data.Key) (Mode, bool) {
	m.gate.RLock()
	defer m.gate.RUnlock()
	sp := m.stripeOf(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if st := sp.items[key]; st != nil {
		if h := st.holder(tx); h != nil {
			return h.mode, true
		}
	}
	return 0, false
}

// HoldingPred reports whether tx holds any predicate lock.
func (m *Manager) HoldingPred(tx TxID) bool {
	m.gate.RLock()
	defer m.gate.RUnlock()
	return m.holdsPredLocked(tx)
}

// holdsPredLocked reports whether tx holds any predicate lock. Called
// with the gate held, either side.
func (m *Manager) holdsPredLocked(tx TxID) bool {
	return slices.ContainsFunc(m.preds, func(ps predState) bool { return ps.tx == tx })
}

// QueueLen reports the number of waiting requests (for tests and metrics).
func (m *Manager) QueueLen() int {
	m.gate.RLock()
	defer m.gate.RUnlock()
	n := len(m.predQ) + int(m.rangeQLen.Load())
	for _, sp := range m.stripes {
		sp.mu.Lock()
		n += len(sp.queue)
		sp.mu.Unlock()
	}
	return n
}
