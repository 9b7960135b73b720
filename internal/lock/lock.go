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
// it a stable view of every stripe. While no predicate lock is held or
// wanted (tracked by one atomic counter) item operations never touch the
// gate's exclusive side at all, which is what lets disjoint-key workloads
// scale with the stripe count.
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
// Deadlock detection lives in a standalone waits-for graph (waitsfor.go)
// that collects wait edges from all stripes under its own lock, preserving
// the deterministic requester-is-victim rule across stripes.
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
//     every item/predicate path enters through it.
//   - Manager.rangeMu, the key-range table latch, nests inside the gate's
//     shared side (range ops never take the gate exclusively).
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
	"errors"
	"fmt"
	"sort"
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
type Images struct {
	Before, After data.Row
}

// matches reports whether p covers either image at key.
func (im Images) matches(p predicate.P, key data.Key) bool {
	return predicate.MatchEither(p, key, im.Before, im.After)
}

// holder records one transaction's granted item lock.
type holder struct {
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

// itemState is the lock table entry for one data item.
type itemState struct {
	holders map[TxID]*holder
}

// PredHandle identifies a granted predicate lock for later release.
type PredHandle int64

// predState is a granted predicate lock.
type predState struct {
	tx   TxID
	mode Mode
	pred predicate.P
	refs int
}

// request is a pending lock request.
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
	ready   chan error
	// handle receives the predicate handle on grant; rhandle the range one.
	handle  PredHandle
	rhandle RangeHandle
	seq     int64
	// obsStart is the sink-clock instant this request started waiting
	// (set only when a sink is attached; 0 means never waited).
	obsStart int64
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

type footprintSlot struct {
	mu sync.Mutex
	m  map[TxID]map[int]struct{} // tx -> stripe indices ever touched
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
	if fs.m == nil {
		fs.m = map[TxID]map[int]struct{}{}
	}
	set := fs.m[tx]
	if set == nil {
		set = map[int]struct{}{}
		fs.m[tx] = set
	}
	set[spIdx] = struct{}{}
	fs.mu.Unlock()
}

// takeFootprintSorted returns and clears tx's touched-stripe set as a
// sorted slice. The order matters: ReleaseAll visits stripes in it, so it
// fixes the order released locks grant queued waiters — and with grant
// parking, the order those waiters later resume. Map iteration here would
// reintroduce run-to-run nondeterminism.
func (m *Manager) takeFootprintSorted(tx TxID) []int {
	set := m.takeFootprint(tx)
	out := make([]int, 0, len(set))
	for spIdx := range set {
		out = append(out, spIdx)
	}
	sort.Ints(out)
	return out
}

// takeFootprint returns and clears tx's touched-stripe set.
func (m *Manager) takeFootprint(tx TxID) map[int]struct{} {
	fs := m.footprintSlotOf(tx)
	fs.mu.Lock()
	set := fs.m[tx]
	delete(fs.m, tx)
	fs.mu.Unlock()
	return set
}

// stripe is one shard of the item lock table: its own lock table, wait
// queue and latch. held tracks which keys each transaction holds in this
// stripe so ReleaseAll is O(held keys), not O(table).
type stripe struct {
	idx   int
	mu    sync.Mutex
	items map[data.Key]*itemState
	held  map[TxID]map[data.Key]struct{}
	queue []*request // waiting item requests: upgrades first, then arrival order

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

// Manager is a striped lock manager. The zero value is not usable; use
// NewManager or NewManagerShards.
type Manager struct {
	striper data.Striper
	stripes []*stripe

	// gate is the shared-exclusive gate over the stripe set. Item
	// operations hold it shared (stripe latches give them mutual
	// exclusion); predicate operations — whose conflicts span every
	// stripe — and item operations racing predicate state hold it
	// exclusively, quiescing the stripes.
	gate sync.RWMutex

	// predActivity counts predicate holders plus queued predicate
	// requests. It changes only under the exclusive gate; item fast paths
	// read it under the shared gate, where zero is stable and means no
	// predicate conflict is possible and no release can unblock one.
	predActivity atomic.Int64

	// preds and predQ are the cross-stripe predicate-lock table and its
	// wait queue; handles generates PredHandles. All three are touched
	// only under the exclusive gate.
	preds   map[PredHandle]*predState
	predQ   []*request
	handles PredHandle

	// Key-range locking state (keyrange.go). rangeMu orders range
	// operations against each other; item operations never take it from
	// inside a stripe latch, and only at all while range waiters exist
	// (rangeQLen) or fragments are live (rangeActivity — the predActivity
	// pattern). rangeHolds, rangeQ, supFrags, gapStripe, the range/gap
	// counters and every scratch buffer below are touched only under
	// rangeMu; fragments themselves (stripe.frags) are written under
	// rangeMu plus the stripe's latch and readable under either (see the
	// stripe fields).
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
	fragGCs         int64
	fragsReclaimed  int64

	// Install/release scratch, reused across range operations so a
	// steady-state scan install allocates nothing: per-stripe anchor
	// buckets, the per-stripe merged run, in-range item keys, existing
	// in-range anchors, fragment copy buffers (inheritance and GC), the
	// anchor-snapshot run buffer, GC candidate keys, and the rangeHold
	// free-list. All under rangeMu — no latch of their own.
	runBuckets [][]data.Key
	mergeRun   []data.Key
	itemKeys   []data.Key
	anchorKeys []data.Key
	newAnchors []data.Key
	fragCopy   []fragment
	snapRuns   data.KeyRuns
	gcKeys     []data.Key
	holdFree   []*rangeHold

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
		preds:      map[PredHandle]*predState{},
		gapStripe:  make([]gapStripeStats, striper.Count()),
		runBuckets: make([][]data.Key, striper.Count()),
		wf:         NewWaitsFor(),
	}
	for i := range m.stripes {
		m.stripes[i] = &stripe{
			idx:   i,
			items: map[data.Key]*itemState{},
			held:  map[TxID]map[data.Key]struct{}{},
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
// event. Called with the enqueue latch still held, right after
// notifyWaiting, so flight-recorder order matches the observer's causal
// order (the sink's internal lock is strictly innermost — it never calls
// back into the manager).
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
	if m.predActivity.Load() == 0 {
		// Striped fast path: no predicate lock is held or wanted, so the
		// only possible conflicts are same-key item locks in key's stripe.
		return m.acquireItemStriped(tx, key, mode, im)
	}
	m.gate.RUnlock()
	return m.acquireItemGated(tx, key, mode, im)
}

// acquireItemStriped is the shared-gate item path. Called with the gate
// held shared; releases it before blocking or returning.
func (m *Manager) acquireItemStriped(tx TxID, key data.Key, mode Mode, im Images) error {
	sp := m.stripeOf(key)
	sp.mu.Lock()
	st := sp.items[key]
	if st == nil {
		st = &itemState{holders: map[TxID]*holder{}}
		sp.items[key] = st
	}
	if h, ok := st.holders[tx]; ok && h.reserved {
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
	req := &request{tx: tx, mode: mode, key: key, im: im, ready: make(chan error, 1), seq: m.seq.Add(1)}
	if h, ok := st.holders[tx]; ok && h.mode == S && mode == X {
		req.upgrade = true
	}
	on := m.itemConflictHoldersLocked(sp, req)
	if len(on) == 0 {
		m.countUpgrade(req)
		m.installItemLocked(sp, req)
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
		granted := m.drainRangeIfWaiters(nil)
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
	m.countUpgrade(req)
	enqueue(&sp.queue, req)
	m.noteFootprint(tx, sp.idx)
	sp.waits++
	m.notifyWaiting(tx, on)
	m.obsWait(req, on, sp.idx)
	sp.mu.Unlock()
	m.gate.RUnlock()
	return m.await(req)
}

// acquireItemGated is the exclusive-gate item path, used whenever
// predicate locks are held or wanted: conflicts may then span the
// predicate table, so the request needs the stable cross-stripe view.
func (m *Manager) acquireItemGated(tx TxID, key data.Key, mode Mode, im Images) error {
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	sp := m.stripeOf(key)
	st := sp.items[key]
	if st == nil {
		st = &itemState{holders: map[TxID]*holder{}}
		sp.items[key] = st
	}
	if h, ok := st.holders[tx]; ok && h.reserved {
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
	req := &request{tx: tx, mode: mode, key: key, im: im, ready: make(chan error, 1), seq: m.seq.Add(1)}
	if h, ok := st.holders[tx]; ok && h.mode == S && mode == X {
		req.upgrade = true
	}
	on := m.conflictHoldersLocked(req)
	if len(on) == 0 {
		m.countUpgrade(req)
		m.installItemLocked(sp, req)
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
	m.countUpgrade(req)
	enqueue(&sp.queue, req)
	m.noteFootprint(tx, sp.idx)
	sp.waits++
	m.notifyWaiting(tx, on)
	m.obsWait(req, on, sp.idx)
	m.gate.Unlock()
	m.obs.RecordGateHold(gs)
	return m.await(req)
}

// AcquirePred acquires a predicate lock for tx, blocking until granted.
// The returned handle releases this specific lock. Predicate requests
// always take the exclusive gate: their conflicts span every stripe.
func (m *Manager) AcquirePred(tx TxID, p predicate.P, mode Mode) (PredHandle, error) {
	req := &request{tx: tx, mode: mode, isPred: true, pred: p, ready: make(chan error, 1), seq: m.seq.Add(1)}
	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	on := m.conflictHoldersLocked(req)
	if len(on) == 0 {
		m.installPredLocked(req)
		m.predActivity.Add(1) // new holder
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
	m.predQ = append(m.predQ, req)
	m.predActivity.Add(1) // new waiter (stays counted when it becomes a holder)
	m.predWaits++
	m.notifyWaiting(tx, on)
	m.obsWait(req, on, -1)
	m.gate.Unlock()
	m.obs.RecordGateHold(gs)
	if err := m.await(req); err != nil {
		return 0, err
	}
	return req.handle, nil
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
	for tx, h := range st.holders {
		if tx == req.tx || !conflicts(req.mode, h.mode) {
			continue
		}
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// conflictHoldersLocked returns the distinct transactions whose granted
// locks — item locks in any stripe and predicate locks — conflict with
// req, sorted. Called with the gate held exclusively.
func (m *Manager) conflictHoldersLocked(req *request) []TxID {
	seen := map[TxID]bool{}
	if req.isPred {
		// Predicate request vs item holders in every stripe.
		for _, sp := range m.stripes {
			for key, st := range sp.items {
				for tx, h := range st.holders {
					if tx == req.tx || !conflicts(req.mode, h.mode) {
						continue
					}
					if h.im.matches(req.pred, key) {
						seen[tx] = true
					}
				}
			}
		}
		// Predicate request vs predicate holders.
		for _, ps := range m.preds {
			if ps.tx == req.tx || !conflicts(req.mode, ps.mode) {
				continue
			}
			if !predicate.DisjointWith(req.pred, ps.pred) {
				seen[ps.tx] = true
			}
		}
	} else {
		for _, tx := range m.itemConflictHoldersLocked(m.stripeOf(req.key), req) {
			seen[tx] = true
		}
		// Item request vs predicate holders.
		for _, ps := range m.preds {
			if ps.tx == req.tx || !conflicts(req.mode, ps.mode) {
				continue
			}
			if req.im.matches(ps.pred, req.key) {
				seen[ps.tx] = true
			}
		}
	}
	out := make([]TxID, 0, len(seen))
	for tx := range seen {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// installItemLocked installs req's item lock in sp. Called with sp latched
// (or the gate exclusive).
//
//isolint:grant-mutator
func (m *Manager) installItemLocked(sp *stripe, req *request) {
	sp.grants++
	st := sp.items[req.key]
	if st == nil {
		st = &itemState{holders: map[TxID]*holder{}}
		sp.items[req.key] = st
	}
	if h, ok := st.holders[req.tx]; ok {
		// Upgrade or re-acquire.
		if req.mode == X {
			h.mode = X
		}
		h.refs++
		h.im = mergeImages(h.im, req.im)
		return
	}
	st.holders[req.tx] = &holder{mode: req.mode, refs: 1, im: req.im}
	hk := sp.held[req.tx]
	if hk == nil {
		hk = map[data.Key]struct{}{}
		sp.held[req.tx] = hk
		m.noteFootprint(req.tx, sp.idx)
	}
	hk[req.key] = struct{}{}
}

// installPredLocked installs req's predicate lock and assigns its handle.
// Called with the gate held exclusively.
//
//isolint:grant-mutator
func (m *Manager) installPredLocked(req *request) {
	m.predGrants++
	m.handles++
	req.handle = m.handles
	m.preds[req.handle] = &predState{tx: req.tx, mode: req.mode, pred: req.pred, refs: 1}
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
// item by one transaction.
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
	h, ok := st.holders[tx]
	if !ok {
		return
	}
	h.refs--
	if h.refs > 0 {
		return
	}
	delete(st.holders, tx)
	if hk := sp.held[tx]; hk != nil {
		delete(hk, key)
		if len(hk) == 0 {
			delete(sp.held, tx)
		}
	}
	if len(st.holders) == 0 {
		delete(sp.items, key)
	}
}

// ReleaseItem decrements tx's hold on key, removing the lock at zero and
// draining the stripe's wait queue.
func (m *Manager) ReleaseItem(tx TxID, key data.Key) {
	m.gate.RLock()
	if m.predActivity.Load() == 0 {
		if m.rangeActivity.Load() != 0 {
			// Range activity: the release may unblock a queued range or
			// gap request as well as this stripe's item waiters; drain
			// both in global arrival order (see drainRangeLocked). The
			// gate is deliberately rangeActivity, not rangeQLen: the
			// predicate twin drains globally-by-seq exactly while a
			// predicate lock is *held* (predActivity), so draining
			// per-stripe here while fragments are live would reorder
			// cross-stripe grants and break the protocols' trace
			// equivalence.
			m.rangeMu.Lock()
			sp := m.stripeOf(key)
			sp.mu.Lock()
			m.dropItemLocked(sp, tx, key)
			sp.mu.Unlock()
			granted := m.drainRangeLocked(map[int]bool{sp.idx: true})
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
		m.gate.RUnlock()
		m.notifyGranted(granted)
		return
	}
	m.gate.RUnlock()
	// Predicate activity: the release may unblock a predicate waiter, so
	// the drain needs the cross-stripe view.
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
	if ps, ok := m.preds[handle]; ok && ps.tx == tx {
		ps.refs--
		if ps.refs <= 0 {
			delete(m.preds, handle)
			m.predActivity.Add(-1)
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
	if m.predActivity.Load() == 0 {
		if m.rangeActivity.Load() != 0 {
			m.releaseAllRangeAware(tx)
			return
		}
		// Striped path: no predicate state exists, so each touched stripe
		// can be released and drained independently. An item waiter only
		// ever waits on same-key holders, so per-stripe drains see every
		// consequence of this stripe's releases, and untouched stripes
		// (the footprint tracks them) need no visit at all.
		m.wf.Remove(tx)
		var granted, cancelled []*request
		for _, spIdx := range m.takeFootprintSorted(tx) {
			sp := m.stripes[spIdx]
			sp.mu.Lock()
			for key := range sp.held[tx] {
				if st := sp.items[key]; st != nil {
					delete(st.holders, tx)
					if len(st.holders) == 0 {
						delete(sp.items, key)
					}
				}
			}
			delete(sp.held, tx)
			cancelled = append(cancelled, cancelQueued(&sp.queue, tx, m.wf)...)
			granted = append(granted, m.drainStripeLocked(sp)...)
			sp.mu.Unlock()
		}
		m.gate.RUnlock()
		m.notifyCancelled(cancelled, tx)
		m.notifyGranted(granted)
		return
	}
	m.gate.RUnlock()

	m.gate.Lock()
	m.gateAcquires.Add(1)
	gs := m.obs.Now()
	m.wf.Remove(tx)
	var cancelled []*request
	for _, spIdx := range m.takeFootprintSorted(tx) {
		sp := m.stripes[spIdx]
		for key := range sp.held[tx] {
			if st := sp.items[key]; st != nil {
				delete(st.holders, tx)
				if len(st.holders) == 0 {
					delete(sp.items, key)
				}
			}
		}
		delete(sp.held, tx)
		cancelled = append(cancelled, cancelQueued(&sp.queue, tx, m.wf)...)
	}
	removedPreds := int64(0)
	for h, ps := range m.preds {
		if ps.tx == tx {
			delete(m.preds, h)
			removedPreds++
		}
	}
	m.predActivity.Add(-removedPreds)
	predCancelled := cancelQueued(&m.predQ, tx, m.wf)
	m.predActivity.Add(-int64(len(predCancelled)))
	cancelled = append(cancelled, predCancelled...)
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
		touched, rangeCancelled := m.releaseAllRangesLocked(tx)
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
// shared gate and no predicate activity (item-item conflicts only).
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
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].upgrade != cands[j].upgrade {
				return cands[i].upgrade
			}
			return cands[i].seq < cands[j].seq
		})
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
		if h, ok := st.holders[tx]; ok {
			return h.mode, true
		}
	}
	return 0, false
}

// HoldingPred reports whether tx holds any predicate lock.
func (m *Manager) HoldingPred(tx TxID) bool {
	m.gate.RLock()
	defer m.gate.RUnlock()
	for _, ps := range m.preds {
		if ps.tx == tx {
			return true
		}
	}
	return false
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
