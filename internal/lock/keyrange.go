// Key-range (next-key) locking: the striped alternative to the predicate
// table for phantom prevention.
//
// A predicate lock (§2.3) is a lock on every data item satisfying a
// <search condition> — including phantoms — which is why the predicate
// table lives behind a cross-stripe gate: its conflicts can surface in any
// stripe. Key-range locking finitizes the same coverage instead of
// centralizing it. The existing keys partition the key space into records
// and gaps; a range scan decomposes its protection into per-key *next-key
// fragments*, one per existing key in the predicate's key range (each
// fragment covers its anchor key and the gap below it) plus one supremum
// fragment for the gap above the last anchor. Fragments live in the lock
// table stripe of their anchor key, so:
//
//   - an update or delete of key k checks only the fragments anchored at k
//     — its own stripe, under the stripe latch it already holds;
//   - an insert of a new key j checks the fragments at the smallest anchor
//     at or above j (the gap's owner) and, when granted, copies the
//     covering fragments onto j — InnoDB-style gap-lock inheritance, so
//     coverage survives the key space densifying under a live scan;
//   - disjoint-key item traffic never touches any cross-stripe structure:
//     while no fragment is held or wanted (one atomic counter, the exact
//     predActivity pattern) every fast path is byte-for-byte the striped
//     item path, and even with a live scan, item operations consult only
//     their own stripe. The shared-exclusive gate's exclusive side is
//     never taken on this protocol (Stats.GateAcquires stays zero).
//
// Conflicts are image-refined: a fragment carries its scan's predicate,
// and a write conflicts with it only if the write's before- or after-image
// satisfies that predicate — the same MatchEither rule as the predicate
// table. The refinement is what makes the two protocols behaviorally
// equivalent (same blocking, same waits-for edges, same deadlock victims),
// which the differential fuzzer verifies by running both engine families
// over the same schedules; classic next-key locking without refinement
// would be sound but coarser, blocking non-matching writes into covered
// gaps.
//
// # Storage and allocation discipline
//
// Each stripe keeps its fragments in one slice sorted by anchor key
// (stripe.frags): an install merges one sorted per-stripe key run in a
// single backward pass, the covering-anchor lookup of a gap check is one
// binary search returning a zero-copy view, and a release filters the
// slice in place. All install-time staging — the anchor-snapshot runs, the
// per-stripe buckets, the merged runs, the per-handle location books — is
// recycled through Manager-owned scratch buffers and a rangeHold
// free-list (all under rangeMu, so no pool latch exists), making a
// steady-state scan install O(1) allocations.
//
// # Fragment GC
//
// With SetRowPresent, drains periodically sweep *dead anchors* — anchor
// keys with no row, no item-lock entry and no queued item request, the
// residue gap inheritance leaves behind under insert/delete storms —
// migrating their fragments to the next live anchor (deduplicated per
// handle), which preserves every covering set exactly: a gap position
// previously owned by the dead anchor is owned by its successor
// afterwards, with a fragment superset whose extra members cannot match
// there (a fragment's predicate never matches outside its key bounds, and
// a nil-row image satisfies no predicate).
//
// Range acquisition is optimistic install-then-validate: fragments are
// installed stripe by stripe under each stripe's latch, then the conflict
// sweep runs once more. A conflicting writer either saw an installed
// fragment under its stripe latch (and waited) or installed its exclusive
// lock before the validation visit (and the validation backs the range
// out to the wait queue) — either way no conflict is missed without any
// global quiescing. Waiting range and gap requests queue in rangeQ under
// rangeMu, a mutex range operations share with each other but that item
// operations only touch when range waiters exist (rangeQLen) — and then
// only after their stripe work, never nested inside a stripe latch.
package lock

import (
	"sort"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

// RangeHandle identifies a granted key-range lock for later release.
type RangeHandle int64

// fragment is one stripe-local granule of a key-range lock: Shared
// coverage of its anchor key and the gap below it, refined by the scan's
// predicate. All fragments are Shared — scans are reads; writers never
// install persistent range state (an insert's "exclusive gap lock" is the
// AcquireGap conflict check itself, insert-intention style).
type fragment struct {
	tx     TxID
	handle RangeHandle
	pred   predicate.P
}

// anchoredFrag is one entry of a stripe's sorted fragment slice: a
// fragment tagged with the anchor key it covers. Entries are ordered by
// anchor; entries with equal anchors are adjacent (their relative order is
// immaterial — conflict sets are aggregated and sorted by TxID).
type anchoredFrag struct {
	anchor data.Key
	f      fragment
}

// rangeHold is one handle's location book: per-stripe fragment counts
// (parallel stripes/counts slices) and whether the handle holds a supremum
// fragment. Exact release needs only this — not per-fragment locations: a
// release filters each counted stripe's slice by (tx, handle) in one pass.
// Holds are recycled through Manager.holdFree. All access under rangeMu.
type rangeHold struct {
	stripes []int
	counts  []int
	sup     bool
}

// slot returns the index of stripe in the hold's parallel count slices,
// appending a zero-count entry if absent.
func (h *rangeHold) slot(stripe int) int {
	for i, s := range h.stripes {
		if s == stripe {
			return i
		}
	}
	h.stripes = append(h.stripes, stripe)
	h.counts = append(h.counts, 0)
	return len(h.stripes) - 1
}

func (h *rangeHold) reset() {
	h.stripes = h.stripes[:0]
	h.counts = h.counts[:0]
	h.sup = false
}

// newHold takes a hold from the free-list (or allocates the pool's next
// one). Called with rangeMu held.
func (m *Manager) newHold() *rangeHold {
	if n := len(m.holdFree); n > 0 {
		h := m.holdFree[n-1]
		m.holdFree = m.holdFree[:n-1]
		return h
	}
	return &rangeHold{}
}

// freeHold returns a hold to the free-list. Called with rangeMu held.
func (m *Manager) freeHold(h *rangeHold) {
	h.reset()
	m.holdFree = append(m.holdFree, h)
}

// gapStripeStats counts one stripe's gap-lock activity (under rangeMu).
type gapStripeStats struct {
	grants int64
	waits  int64
}

// gcInheritThreshold is the number of fragment inheritances between
// fragment-GC sweeps: deterministic (a counter, not a clock), cheap enough
// to bound inherited-fragment growth under insert storms, rare enough not
// to tax the drain path.
const gcInheritThreshold = 16

// RangeSpec describes the key range a scan locks: the predicate being
// protected, the anchors (present keys in [Lo, Hi), ascending — from
// sv.Store.RangeAnchors), and the ceiling (first present key at or above
// Hi; "" anchors the above-range gap at the supremum instead). Bounded
// false means the whole key space.
//
// SnapshotInto, when set, supersedes the static Anchors/Ceiling: the
// manager calls it at install time, under the range mutex, so the anchor
// set reflects the store at the serialization point of the range lock
// rather than at some earlier moment in the caller — a key inserted and
// committed between a caller-side snapshot and the acquisition would
// otherwise be a permanent hole in the scan's coverage. Queued range
// requests re-snapshot when finally granted, for the same reason. It
// appends the anchor set as per-stripe sorted runs into the manager's
// reusable buffer (see sv.Store.AppendRangeAnchors) and returns only the
// ceiling, so the snapshot itself costs no allocations at steady state.
type RangeSpec struct {
	Pred         predicate.P
	Anchors      []data.Key
	Ceiling      data.Key
	SnapshotInto func(*data.KeyRuns) (ceiling data.Key)
	Lo, Hi       data.Key
	Bounded      bool
}

// covers reports whether key lies in the spec's range.
func (s RangeSpec) covers(key data.Key) bool {
	return !s.Bounded || (s.Lo <= key && key < s.Hi)
}

// anchorNeedsFragment reports whether an existing anchor key must carry a
// fragment of the installing scan: every anchor inside the range, plus —
// when bounded — every anchor between Hi and the snapshot ceiling (all of
// them when no ceiling exists). gapCoverLocked consults only the single
// smallest anchor at or above an insert position, so a stale anchor
// between the range and its ceiling would otherwise shadow the ceiling
// (or supremum) fragment that protects the scan's uppermost gap — the
// above-range cousin of the in-range stale-anchor shadowing rule.
func anchorNeedsFragment(spec RangeSpec, ceiling data.Key, k data.Key) bool {
	if !spec.Bounded {
		return true
	}
	if k < spec.Lo {
		return false
	}
	if k < spec.Hi {
		return true
	}
	return ceiling == "" || k <= ceiling
}

// AcquireRange acquires a Shared key-range (next-key) lock for tx over
// spec, blocking until no exclusive item holder anywhere has a row image
// satisfying spec.Pred — the same admission rule as AcquirePred, decided
// against per-stripe state instead of a gated global table. The returned
// handle releases the lock. Returns ErrDeadlock under the standard
// requester-is-victim rule.
//
//isolint:allow latchorder the post-install refresh is guarded by rangeQLen/wf.Empty — with no admitted waiter there is no wait edge to go stale — and the back-out path reverts the install and refreshes via drainRangeLocked
func (m *Manager) AcquireRange(tx TxID, spec RangeSpec) (RangeHandle, error) {
	req := &request{tx: tx, mode: S, isRange: true, spec: spec, ready: make(chan error, 1), seq: m.seq.Add(1)}
	m.gate.RLock()
	m.rangeMu.Lock()
	rs := m.obs.Now()
	// Count the range before sweeping for conflicts: an insert's fast-path
	// gap check that still reads zero activity is thereby ordered before
	// this sweep, so the sweep (or the recheck an insert runs after its
	// item lock installs — see RecheckGap) is guaranteed to see one side
	// of the race. Every non-holder exit undoes the count.
	m.rangeActivity.Add(1)
	var granted []*request
	on := m.rangeConflictHoldersLocked(req)
	if len(on) == 0 {
		h := m.installRangeLocked(req)
		if again := m.rangeConflictHoldersLocked(req); len(again) != 0 {
			// A conflicting writer latched its stripe between our install
			// visit and the validation sweep (free-running mode only;
			// scripted runs execute one operation at a time). Back out and
			// wait like any other conflicted request — draining the
			// stripes that briefly held our fragments, so an item request
			// that queued behind one of them is re-evaluated rather than
			// stranded.
			touched := m.removeRangeHoldLocked(tx, h)
			granted = m.drainRangeLocked(touched)
			on = again
		} else {
			m.rangeGrants++
			// The new fragments extend the conflict sets of queued item
			// requests in any stripe (and of queued range requests); keep
			// every wait edge current or a later cycle goes undetected.
			// With no admitted waiter anywhere (empty waits-for graph, no
			// queued range request) there is nothing to refresh and the
			// all-stripe sweep is skipped — the common idle-scan case.
			if m.rangeQLen.Load() != 0 || !m.wf.Empty() {
				m.refreshAllRangeAwareLocked()
			}
			m.rangeMu.Unlock()
			m.obs.RecordRangeMuHold(rs)
			m.gate.RUnlock()
			return h, nil
		}
	}
	if !m.wf.AddWaiter(tx, on) {
		m.deadlocks.Add(1)
		m.obsDeadlock(tx, on)
		m.rangeActivity.Add(-1)
		m.rangeMu.Unlock()
		m.obs.RecordRangeMuHold(rs)
		m.gate.RUnlock()
		m.notifyGranted(granted)
		return 0, ErrDeadlock
	}
	m.rangeQ = append(m.rangeQ, req)
	m.rangeQLen.Store(int64(len(m.rangeQ)))
	// (The entry count from above stays: a queued range request remains
	// counted, and keeps counting as a holder when granted.)
	m.rangeWaits++
	m.notifyWaiting(tx, on)
	m.obsWait(req, on, -1)
	m.rangeMu.Unlock()
	m.obs.RecordRangeMuHold(rs)
	m.gate.RUnlock()
	m.notifyGranted(granted)
	if err := m.await(req); err != nil {
		return 0, err
	}
	return req.rhandle, nil
}

// AcquireGap acquires the covering gap's exclusive lock for an insert of
// key (insert-intention style): it blocks while any fragment covering key
// — at the gap's owning anchor or the supremum — belongs to another
// transaction and has a predicate satisfied by the insert's images, and
// on grant inherits the covering fragments onto key so the gap's coverage
// survives the insert. A request that had to queue also blocks on the
// item holders at key, and its grant installs the insert's item hold
// atomically (consumed by the follow-up AcquireItem) — the predicate
// twin's insert is one item acquisition, and without the atomic install
// another writer could take the item while the granted insert was still
// in flight, manufacturing a deadlock the twin cannot produce. With no
// range activity it is one atomic load.
func (m *Manager) AcquireGap(tx TxID, key data.Key, im Images) error {
	return m.acquireGap(tx, key, im, true)
}

// RecheckGap re-runs the covering-gap check after the insert's exclusive
// item lock has installed. It closes the free-running race in which a
// scan begins between an insert's (empty) fast-path gap check and the
// item lock install: AcquireRange counts itself before its conflict
// sweep, so either this recheck observes the scan's activity (and waits
// on its fragments under rangeMu), or the scan's sweep observes the
// already-installed item lock (and yields). Scripted runs execute one
// operation at a time, so the recheck is always a no-op there; it is not
// counted in the gap statistics. The re-inherit on grant also restores
// record coverage at the insert key if a fragment-GC sweep collected it
// between the first gap check and the item install — the row only becomes
// visible to other writers after this call returns.
func (m *Manager) RecheckGap(tx TxID, key data.Key, im Images) error {
	return m.acquireGap(tx, key, im, false)
}

func (m *Manager) acquireGap(tx TxID, key data.Key, im Images, count bool) error {
	if m.rangeActivity.Load() == 0 {
		return nil
	}
	m.gate.RLock()
	m.rangeMu.Lock()
	rs := m.obs.Now()
	gc := m.gapCoverLocked(key)
	// The gap stage is the insert's single blocking point, mirroring the
	// predicate twin's one item acquisition: its conflict set spans the
	// covering fragment owners and the item holders at key alike.
	// Checking fragments only here and item holders in the follow-up
	// AcquireItem would let a drain grant the item while freshly granted
	// scans cover the gap — the twin keeps the whole insert queued behind
	// those scans' predicate locks, so the grant orders would diverge. A
	// self-held Shared lock makes the request the twin's upgrade, with
	// the same drain priority.
	holders, selfS := m.gapItemHoldersLocked(tx, key)
	on := unionTxIDs(gapConflicts(tx, key, im, gc), holders)
	spIdx := m.stripeIndex(key)
	if len(on) == 0 {
		m.inheritLocked(key, gc)
		if count {
			m.gapGrants++
			m.gapStripe[spIdx].grants++
		}
		m.rangeMu.Unlock()
		m.obs.RecordRangeMuHold(rs)
		m.gate.RUnlock()
		return nil
	}
	req := &request{tx: tx, mode: X, isGap: true, upgrade: selfS, key: key, im: im, ready: make(chan error, 1), seq: m.seq.Add(1)}
	if !m.wf.AddWaiter(tx, on) {
		m.deadlocks.Add(1)
		m.obsDeadlock(tx, on)
		m.rangeMu.Unlock()
		m.obs.RecordRangeMuHold(rs)
		m.gate.RUnlock()
		return ErrDeadlock
	}
	m.rangeQ = append(m.rangeQ, req)
	m.rangeQLen.Store(int64(len(m.rangeQ)))
	m.rangeActivity.Add(1)
	m.gapWaits++
	m.gapStripe[spIdx].waits++
	m.notifyWaiting(tx, on)
	m.obsWait(req, on, spIdx)
	m.rangeMu.Unlock()
	m.obs.RecordRangeMuHold(rs)
	m.gate.RUnlock()
	return m.await(req)
}

// ReleaseRange releases the key-range lock identified by handle, removing
// every fragment it installed (including inherited copies) and draining
// the affected stripes and the range queue.
func (m *Manager) ReleaseRange(tx TxID, h RangeHandle) {
	m.gate.RLock()
	m.rangeMu.Lock()
	rs := m.obs.Now()
	touched := m.removeRangeHoldLocked(tx, h)
	m.rangeActivity.Add(-1)
	granted := m.drainRangeLocked(touched)
	m.rangeMu.Unlock()
	m.obs.RecordRangeMuHold(rs)
	m.gate.RUnlock()
	m.notifyGranted(granted)
}

// releaseAllRangeAware is ReleaseAll's path while range activity exists:
// tx's item holds, queued item requests, range holds and queued range/gap
// requests all go, followed by one global-arrival-order drain over every
// stripe that could have been unblocked plus the range queue. Called with
// the gate held shared; releases it.
func (m *Manager) releaseAllRangeAware(tx TxID) {
	m.rangeMu.Lock()
	m.wf.Remove(tx)
	touched := map[int]bool{}
	var cancelled []*request
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
		sp.mu.Unlock()
		touched[spIdx] = true
	}
	rangeTouched, rangeCancelled := m.releaseAllRangesLocked(tx)
	for i := range rangeTouched {
		touched[i] = true
	}
	cancelled = append(cancelled, rangeCancelled...)
	granted := m.drainRangeLocked(touched)
	m.rangeMu.Unlock()
	m.gate.RUnlock()
	m.notifyCancelled(cancelled, tx)
	m.notifyGranted(granted)
}

// HoldingRange reports whether tx holds any key-range lock.
func (m *Manager) HoldingRange(tx TxID) bool {
	m.rangeMu.Lock()
	defer m.rangeMu.Unlock()
	return len(m.rangeHolds[tx]) > 0
}

// rangeConflictHoldersLocked returns the transactions whose granted
// exclusive item locks — in any stripe — have a row image satisfying the
// range's predicate, sorted. The sweep latches one stripe at a time;
// called with rangeMu held.
func (m *Manager) rangeConflictHoldersLocked(req *request) []TxID {
	seen := map[TxID]bool{}
	for _, sp := range m.stripes {
		sp.mu.Lock()
		for key, st := range sp.items {
			for htx, h := range st.holders {
				if htx == req.tx || !conflicts(req.mode, h.mode) {
					continue
				}
				if h.im.matches(req.spec.Pred, key) {
					seen[htx] = true
				}
			}
		}
		sp.mu.Unlock()
	}
	return sortedTxIDs(seen)
}

// installRangeLocked installs req's fragments: one per anchor (plus the
// ceiling anchor, plus any lock-table-resident key in range — a row
// deleted by an uncommitted transaction has no store key but still needs
// record coverage — plus any stale anchor up to the ceiling, see
// anchorNeedsFragment), and a supremum fragment when no ceiling exists.
// Per stripe, the three sorted key sources (bucketed snapshot run,
// in-range item keys, existing anchors) merge into one run that a single
// backward pass splices into the stripe's fragment slice. All staging
// lives in recycled Manager scratch. Called with rangeMu held; latches one
// stripe at a time.
//
//isolint:grant-mutator
func (m *Manager) installRangeLocked(req *request) RangeHandle {
	m.rangeHandles++
	h := m.rangeHandles
	req.rhandle = h
	hold := m.newHold()
	ceiling := m.snapshotAnchorsLocked(req.spec)
	m.bucketAnchorsLocked(ceiling)
	m.densifyAnchorsLocked(req.spec, ceiling)
	f := fragment{tx: req.tx, handle: h, pred: req.spec.Pred}
	for i, sp := range m.stripes {
		sp.mu.Lock()
		run := m.stripeInstallRunLocked(sp, req.spec, ceiling, m.runBuckets[i])
		if len(run) == 0 {
			sp.mu.Unlock()
			continue
		}
		insertFragRun(sp, run, f)
		sp.mu.Unlock()
		hold.counts[hold.slot(i)] += len(run)
	}
	if ceiling == "" {
		m.supFrags = append(m.supFrags, f)
		hold.sup = true
	}
	if m.rangeHolds == nil {
		m.rangeHolds = map[TxID]map[RangeHandle]*rangeHold{}
	}
	hm := m.rangeHolds[req.tx]
	if hm == nil {
		hm = map[RangeHandle]*rangeHold{}
		m.rangeHolds[req.tx] = hm
	}
	hm[h] = hold
	return h
}

// densifyAnchorsLocked preserves gap coverage across the anchor
// densification an install is about to perform. gapCoverLocked consults
// only the single smallest fragment-bearing anchor at or above an insert
// position, so a fragment anchored at a key that carried none before — a
// lock-table-resident key with no row, or a fresh snapshot key inside a
// gap an older scan already covers — would shadow the covering fragments
// (or the supremum fragments) above it: an insert below the new anchor
// would consult only the new scan's fragment and sail past the older
// scan's. Before any of this install's fragments land, every such new
// anchor inherits its pre-install cover, exactly as a granted insert
// inherits its gap's cover onto the inserted key. Ascending key order
// keeps each cover a pre-install one: an inherited copy at a lower key
// never shadows a higher one. A no-op — one length sweep — while no
// fragment exists anywhere. Called with rangeMu held and no stripe latch
// held; latches one stripe at a time.
func (m *Manager) densifyAnchorsLocked(spec RangeSpec, ceiling data.Key) {
	shadowable := len(m.supFrags) != 0
	for _, sp := range m.stripes {
		if len(sp.frags) != 0 {
			shadowable = true
			break
		}
	}
	if !shadowable {
		return
	}
	newKeys := m.newAnchors[:0]
	for i, sp := range m.stripes {
		sp.mu.Lock()
		run := m.stripeInstallRunLocked(sp, spec, ceiling, m.runBuckets[i])
		for _, k := range run {
			if lo, hi := fragWindow(sp.frags, k); lo == hi {
				newKeys = append(newKeys, k)
			}
		}
		sp.mu.Unlock()
	}
	m.newAnchors = newKeys
	sort.Slice(newKeys, func(a, b int) bool { return newKeys[a] < newKeys[b] })
	for _, k := range newKeys {
		m.inheritLocked(k, m.gapCoverLocked(k))
	}
}

// snapshotAnchorsLocked fills m.snapRuns with the spec's anchor set —
// via SnapshotInto (zero-copy) or the static Anchors — and returns the
// ceiling. Called with rangeMu held.
func (m *Manager) snapshotAnchorsLocked(spec RangeSpec) data.Key {
	m.snapRuns.Reset()
	if spec.SnapshotInto != nil {
		return spec.SnapshotInto(&m.snapRuns)
	}
	m.snapRuns.Keys = append(m.snapRuns.Keys, spec.Anchors...)
	m.snapRuns.EndRun()
	return spec.Ceiling
}

// bucketAnchorsLocked distributes m.snapRuns (plus the ceiling) into the
// per-stripe buckets, restoring per-bucket sort order where runs
// interleaved — when the snapshot's striping matches the lock manager's
// (every engine wires it that way), each run lands in exactly one bucket
// already ascending and the sort never fires. Called with rangeMu held.
func (m *Manager) bucketAnchorsLocked(ceiling data.Key) {
	for i := range m.runBuckets {
		m.runBuckets[i] = m.runBuckets[i][:0]
	}
	for ri := 0; ri < m.snapRuns.NumRuns(); ri++ {
		for _, k := range m.snapRuns.Run(ri) {
			i := m.stripeIndex(k)
			m.runBuckets[i] = append(m.runBuckets[i], k)
		}
	}
	if ceiling != "" {
		i := m.stripeIndex(ceiling)
		m.runBuckets[i] = append(m.runBuckets[i], ceiling)
	}
	for i, b := range m.runBuckets {
		if !keysSorted(b) {
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			m.runBuckets[i] = b
		}
	}
}

func keysSorted(keys []data.Key) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

// stripeInstallRunLocked merges the three sorted per-stripe key sources of
// an install — the bucketed snapshot anchors (with ceiling), the stripe's
// in-range lock-table-resident item keys, and the anchors already carrying
// fragments (in range or shadowing the ceiling) — into one ascending
// duplicate-free run in m.mergeRun. Called with rangeMu and sp's latch
// held.
func (m *Manager) stripeInstallRunLocked(sp *stripe, spec RangeSpec, ceiling data.Key, bucket []data.Key) []data.Key {
	items := m.itemKeys[:0]
	if len(sp.items) != 0 {
		for key := range sp.items {
			if spec.covers(key) {
				items = append(items, key)
			}
		}
		if len(items) > 1 {
			sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		}
	}
	m.itemKeys = items
	anchors := m.anchorKeys[:0]
	for i := 0; i < len(sp.frags); {
		a := sp.frags[i].anchor
		for i < len(sp.frags) && sp.frags[i].anchor == a {
			i++
		}
		if anchorNeedsFragment(spec, ceiling, a) {
			anchors = append(anchors, a)
		}
	}
	m.anchorKeys = anchors
	m.mergeRun = mergeUniqueKeys(m.mergeRun[:0], bucket, items, anchors)
	return m.mergeRun
}

// mergeUniqueKeys merges three ascending key runs into dst, dropping
// duplicates across (and within) runs.
func mergeUniqueKeys(dst []data.Key, a, b, c []data.Key) []data.Key {
	ai, bi, ci := 0, 0, 0
	for ai < len(a) || bi < len(b) || ci < len(c) {
		var min data.Key
		have := false
		if ai < len(a) {
			min, have = a[ai], true
		}
		if bi < len(b) && (!have || b[bi] < min) {
			min, have = b[bi], true
		}
		if ci < len(c) && (!have || c[ci] < min) {
			min = c[ci]
		}
		for ai < len(a) && a[ai] == min {
			ai++
		}
		for bi < len(b) && b[bi] == min {
			bi++
		}
		for ci < len(c) && c[ci] == min {
			ci++
		}
		dst = append(dst, min)
	}
	return dst
}

// insertFragRun splices one fragment per run key into sp's sorted slice in
// a single backward merge pass. Run keys must be ascending and not already
// carry an entry for f's handle. Called with rangeMu and sp's latch held.
func insertFragRun(sp *stripe, run []data.Key, f fragment) {
	need := len(run)
	if need == 0 {
		return
	}
	n := len(sp.frags)
	if cap(sp.frags)-n < need {
		grown := make([]anchoredFrag, n, growCap(cap(sp.frags), n+need))
		copy(grown, sp.frags)
		sp.frags = grown
	}
	sp.frags = sp.frags[:n+need]
	i, j, w := n-1, need-1, n+need-1
	for j >= 0 {
		if i >= 0 && sp.frags[i].anchor > run[j] {
			sp.frags[w] = sp.frags[i]
			i--
		} else {
			sp.frags[w] = anchoredFrag{anchor: run[j], f: f}
			j--
		}
		w--
	}
}

func growCap(oldCap, need int) int {
	if doubled := 2 * oldCap; doubled > need {
		return doubled
	}
	return need
}

// insertFragsAt splices copies at one anchor key (gap inheritance and GC
// migration). Called with rangeMu and sp's latch held.
func insertFragsAt(sp *stripe, key data.Key, frags []fragment) {
	need := len(frags)
	if need == 0 {
		return
	}
	pos := sort.Search(len(sp.frags), func(i int) bool { return sp.frags[i].anchor >= key })
	n := len(sp.frags)
	if cap(sp.frags)-n < need {
		grown := make([]anchoredFrag, n, growCap(cap(sp.frags), n+need))
		copy(grown, sp.frags)
		sp.frags = grown
	}
	sp.frags = sp.frags[:n+need]
	copy(sp.frags[pos+need:], sp.frags[pos:n])
	for k, f := range frags {
		sp.frags[pos+k] = anchoredFrag{anchor: key, f: f}
	}
}

// fragWindow returns the half-open index window of entries anchored at key.
func fragWindow(frags []anchoredFrag, key data.Key) (int, int) {
	i := sort.Search(len(frags), func(x int) bool { return frags[x].anchor >= key })
	j := i
	for j < len(frags) && frags[j].anchor == key {
		j++
	}
	return i, j
}

// removeHandleFrags filters (tx, h)'s entries out of sp's slice in place,
// zeroing the vacated tail so predicate references are dropped. Returns
// the number removed. Called with rangeMu and sp's latch held.
func removeHandleFrags(sp *stripe, tx TxID, h RangeHandle) int {
	kept := sp.frags[:0]
	for _, e := range sp.frags {
		if e.f.tx != tx || e.f.handle != h {
			kept = append(kept, e)
		}
	}
	removed := len(sp.frags) - len(kept)
	for i := len(kept); i < len(sp.frags); i++ {
		sp.frags[i] = anchoredFrag{}
	}
	sp.frags = kept
	return removed
}

// dropCoarse filters (tx, h)'s entries out of the supremum fragment slice
// in place.
func dropCoarse(frags []fragment, tx TxID, h RangeHandle) []fragment {
	kept := frags[:0]
	for _, f := range frags {
		if f.tx != tx || f.handle != h {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(frags); i++ {
		frags[i] = fragment{}
	}
	return kept
}

// removeRangeHoldLocked deletes every fragment of (tx, h) — per-anchor and
// supremum — and returns the set of stripe indexes that lost entries.
// Called with rangeMu held.
func (m *Manager) removeRangeHoldLocked(tx TxID, h RangeHandle) map[int]bool {
	touched := map[int]bool{}
	hm := m.rangeHolds[tx]
	hold := hm[h]
	delete(hm, h)
	if len(hm) == 0 {
		delete(m.rangeHolds, tx)
	}
	if hold == nil {
		return touched
	}
	for idx, spIdx := range hold.stripes {
		if hold.counts[idx] == 0 {
			continue
		}
		sp := m.stripes[spIdx]
		sp.mu.Lock()
		removeHandleFrags(sp, tx, h)
		sp.mu.Unlock()
		touched[spIdx] = true
	}
	if hold.sup {
		m.supFrags = dropCoarse(m.supFrags, tx, h)
	}
	m.freeHold(hold)
	return touched
}

// releaseAllRangesLocked removes every range hold of tx and cancels its
// queued range/gap requests (ReleaseAll's range side). Returns the touched
// stripes and the cancelled requests. Called with rangeMu held.
func (m *Manager) releaseAllRangesLocked(tx TxID) (map[int]bool, []*request) {
	touched := map[int]bool{}
	//isolint:ordered removals of tx's own distinct handles commute; grants drain afterward in queue order
	for h := range m.rangeHolds[tx] {
		for i := range m.removeRangeHoldLocked(tx, h) {
			touched[i] = true
		}
		m.rangeActivity.Add(-1)
	}
	cancelled := cancelQueued(&m.rangeQ, tx, m.wf)
	m.rangeQLen.Store(int64(len(m.rangeQ)))
	m.rangeActivity.Add(-int64(len(cancelled)))
	return touched, cancelled
}

// gapCover is the read-only view a gap check evaluates against: the
// entries at the covering anchor (the smallest anchor at or above the
// insert position) or the supremum fragments when none exists. Views alias
// the live slices — valid only while rangeMu is held, and callers that
// mutate fragment state (inheritance) must copy before inserting.
type gapCover struct {
	frags    []anchoredFrag
	sup      []fragment
	anchor   data.Key
	anchored bool
}

// gapCoverLocked returns the cover of an insert at key. Reading stripe
// fragment slices here takes no stripe latch: writers hold rangeMu (held
// by us) alongside the stripe latch, so no mutation can be concurrent —
// this is what lets the view be zero-copy. Called with rangeMu held.
func (m *Manager) gapCoverLocked(key data.Key) gapCover {
	var gc gapCover
	found := false
	var best data.Key
	var bestSp *stripe
	for _, sp := range m.stripes {
		if len(sp.frags) == 0 {
			continue
		}
		i := sort.Search(len(sp.frags), func(x int) bool { return sp.frags[x].anchor >= key })
		if i == len(sp.frags) {
			continue
		}
		if a := sp.frags[i].anchor; !found || a < best {
			best, bestSp, found = a, sp, true
		}
	}
	if !found {
		gc.sup = m.supFrags
		return gc
	}
	i, j := fragWindow(bestSp.frags, best)
	gc.frags = bestSp.frags[i:j]
	gc.anchor, gc.anchored = best, true
	return gc
}

// gapConflicts filters the cover down to the conflicting holders: a
// fragment of another transaction whose predicate is satisfied by either
// image of the insert.
func gapConflicts(tx TxID, key data.Key, im Images, gc gapCover) []TxID {
	var seen map[TxID]bool
	add := func(owner TxID) {
		if seen == nil {
			seen = map[TxID]bool{}
		}
		seen[owner] = true
	}
	for _, e := range gc.frags {
		if e.f.tx != tx && im.matches(e.f.pred, key) {
			add(e.f.tx)
		}
	}
	for _, f := range gc.sup {
		if f.tx != tx && im.matches(f.pred, key) {
			add(f.tx)
		}
	}
	return sortedTxIDs(seen)
}

// gapItemHoldersLocked collects the transactions other than tx holding an
// item lock on key, ascending, and reports whether tx itself holds the
// key in Shared mode (the insert is then the twin's upgrade). The holders
// join a gap request's conflict set: the predicate twin's insert takes
// one item lock whose sweep spans item holders and predicate owners
// alike, and the gap grant installs the item hold atomically to match.
// Called with rangeMu held and no stripe latch held; latches key's
// stripe briefly.
func (m *Manager) gapItemHoldersLocked(tx TxID, key data.Key) ([]TxID, bool) {
	sp := m.stripeOf(key)
	sp.mu.Lock()
	var on []TxID
	selfS := false
	if st := sp.items[key]; st != nil {
		//isolint:ordered the collected holders are sorted below; selfS is a single flag
		for owner, h := range st.holders {
			if owner != tx {
				on = append(on, owner)
			} else if h.mode == S {
				selfS = true
			}
		}
	}
	sp.mu.Unlock()
	sort.Slice(on, func(i, j int) bool { return on[i] < on[j] })
	return on, selfS
}

// unionTxIDs merges two ascending TxID slices into one ascending,
// deduplicated slice.
func unionTxIDs(a, b []TxID) []TxID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]TxID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// inheritLocked copies the covering fragments onto key (the next-key
// inheritance of a granted insert), registering each copy in its owner's
// hold so release stays exact. The cover is copied into scratch before the
// splice — the view may alias the very slice the splice shifts. A no-op
// when key is already the covering anchor. Called with rangeMu held.
func (m *Manager) inheritLocked(key data.Key, gc gapCover) {
	if (len(gc.frags) == 0 && len(gc.sup) == 0) || (gc.anchored && gc.anchor == key) {
		return
	}
	spIdx := m.stripeIndex(key)
	sp := m.stripes[spIdx]
	copies := m.fragCopy[:0]
	for _, e := range gc.frags {
		copies = append(copies, e.f)
	}
	copies = append(copies, gc.sup...)
	m.fragCopy = copies
	sp.mu.Lock()
	insertFragsAt(sp, key, copies)
	sp.mu.Unlock()
	for _, f := range copies {
		if hold := m.rangeHolds[f.tx][f.handle]; hold != nil {
			hold.counts[hold.slot(spIdx)]++
		}
	}
	m.inheritsSinceGC += len(copies)
}

// fragmentConflictHolders returns the holders of fragments anchored at
// req.key that an exclusive item request conflicts with. Called with the
// key's stripe latched.
func fragmentConflictHolders(sp *stripe, req *request) []TxID {
	if req.mode != X || len(sp.frags) == 0 {
		return nil
	}
	var seen map[TxID]bool
	i, j := fragWindow(sp.frags, req.key)
	for _, e := range sp.frags[i:j] {
		if e.f.tx != req.tx && req.im.matches(e.f.pred, req.key) {
			if seen == nil {
				seen = map[TxID]bool{}
			}
			seen[e.f.tx] = true
		}
	}
	return sortedTxIDs(seen)
}

// itemConflictHoldersLocked is the fragment-aware item conflict set: the
// same-key item holders plus the holders of fragments anchored at the key.
// Called with the key's stripe latched (or the gate exclusive).
func (m *Manager) itemConflictHoldersLocked(sp *stripe, req *request) []TxID {
	out := itemConflictHolders(sp.items[req.key], req)
	fr := fragmentConflictHolders(sp, req)
	if len(fr) == 0 {
		return out
	}
	seen := map[TxID]bool{}
	for _, tx := range out {
		seen[tx] = true
	}
	for _, tx := range fr {
		seen[tx] = true
	}
	return sortedTxIDs(seen)
}

// drainRangeIfWaiters runs the range-aware drain when any range or gap
// request is queued (one atomic load otherwise). Called with the gate held
// shared and no stripe latch held.
func (m *Manager) drainRangeIfWaiters(touched map[int]bool) []*request {
	if m.rangeQLen.Load() == 0 {
		return nil
	}
	m.rangeMu.Lock()
	granted := m.drainRangeLocked(touched)
	m.rangeMu.Unlock()
	return granted
}

// drainRangeLocked grants every grantable waiter among the touched
// stripes' item queues and the range queue, in global upgrade-first
// arrival order — the same grant order as the gated drainAllLocked, which
// is what keeps the two phantom protocols' wake-up sequences identical —
// then runs the fragment-GC sweep when due (it preserves every covering
// set exactly, so it cannot grant or block anything) and refreshes the
// wait edges of everything still blocked. Called with rangeMu held and no
// stripe latch held.
func (m *Manager) drainRangeLocked(touched map[int]bool) []*request {
	if touched == nil {
		touched = map[int]bool{}
	}
	var granted []*request
	for {
		// Recomputed each pass: a range grant backed out inside the loop
		// adds the stripes that briefly held its fragments, whose item
		// waiters must be re-evaluated too.
		stripes := make([]int, 0, len(touched))
		for i := range touched {
			stripes = append(stripes, i)
		}
		sort.Ints(stripes)
		var cands []*request
		for _, i := range stripes {
			sp := m.stripes[i]
			sp.mu.Lock()
			for _, r := range sp.queue {
				if len(m.itemConflictHoldersLocked(sp, r)) == 0 {
					cands = append(cands, r)
				}
			}
			sp.mu.Unlock()
		}
		for _, r := range m.rangeQ {
			switch {
			case r.isRange:
				if len(m.rangeConflictHoldersLocked(r)) == 0 {
					cands = append(cands, r)
				}
			case r.isGap:
				holders, _ := m.gapItemHoldersLocked(r.tx, r.key)
				if len(holders) == 0 &&
					len(gapConflicts(r.tx, r.key, r.im, m.gapCoverLocked(r.key))) == 0 {
					cands = append(cands, r)
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		best := cands[0]
		for _, r := range cands[1:] {
			if r.upgrade != best.upgrade {
				if r.upgrade {
					best = r
				}
				continue
			}
			if r.seq < best.seq {
				best = r
			}
		}
		if m.grantRangeAwareLocked(best, touched) {
			granted = append(granted, best)
		}
	}
	if m.rowPresent != nil && m.inheritsSinceGC >= gcInheritThreshold {
		m.inheritsSinceGC = 0
		m.sweepDeadAnchorsLocked()
	}
	// Edges are refreshed across every stripe, not just the touched ones:
	// a range grant inside the loop installs fragments wherever its
	// anchors live, extending item waiters' conflict sets far beyond the
	// stripes this drain released in. When the drain granted nothing and
	// no waiter exists anywhere — no queued range request and an empty
	// waits-for graph (a queued request with no edges would have been a
	// grantable candidate above) — there are no edges to refresh, and
	// skipping the all-stripe sweep keeps an idle scan from taxing every
	// unrelated release with O(stripes) latch work.
	if len(granted) == 0 && m.rangeQLen.Load() == 0 && m.wf.Empty() {
		return granted
	}
	m.refreshAllRangeAwareLocked()
	return granted
}

// sweepDeadAnchorsLocked migrates the fragments of every dead anchor — an
// anchor key with no row, no item-lock entry and no queued item request —
// to the smallest live anchor above it (or the supremum), deduplicating
// per handle. Blocking is preserved exactly: a gap position the dead
// anchor owned is owned by the successor afterwards, whose fragment set
// becomes a superset of the migrated one, and any extra member either
// already applied there or cannot match there (a fragment's predicate
// never matches a key outside its bounds, and the only write possible at
// a rowless, lockless key — a delete of an absent row — carries nil
// images, which satisfy no predicate). Called with rangeMu held; latches
// one stripe at a time.
func (m *Manager) sweepDeadAnchorsLocked() {
	m.fragGCs++
	reclaimedBefore := m.fragsReclaimed
	defer func() {
		if m.obs != nil {
			m.obs.GCSweep(-1, int(m.fragsReclaimed-reclaimedBefore))
		}
	}()
	for _, sp := range m.stripes {
		if len(sp.frags) == 0 {
			continue
		}
		cand := m.gcKeys[:0]
		sp.mu.Lock()
		for i := 0; i < len(sp.frags); {
			a := sp.frags[i].anchor
			for i < len(sp.frags) && sp.frags[i].anchor == a {
				i++
			}
			if sp.items[a] == nil && !queuedAt(sp.queue, a) {
				cand = append(cand, a)
			}
		}
		sp.mu.Unlock()
		m.gcKeys = cand
		for _, a := range cand {
			// The row check runs outside the stripe latch (the store has
			// its own latches); liveness is re-validated under the latch in
			// collectAnchorLocked. A row appearing concurrently is only
			// possible for an insert already past its gap check — whose
			// RecheckGap, ordered behind our rangeMu, re-inherits coverage
			// at the key before the row becomes visible to other writers.
			if m.rowPresent(a) {
				continue
			}
			m.collectAnchorLocked(sp, a)
		}
	}
}

// collectAnchorLocked removes one dead anchor's fragments and migrates
// them to the successor anchor (or the supremum), updating each owner's
// hold. Re-validates deadness under the stripe latch. Called with rangeMu
// held.
func (m *Manager) collectAnchorLocked(sp *stripe, a data.Key) {
	sp.mu.Lock()
	i, j := fragWindow(sp.frags, a)
	if i == j || sp.items[a] != nil || queuedAt(sp.queue, a) {
		sp.mu.Unlock()
		return
	}
	moved := m.fragCopy[:0]
	for _, e := range sp.frags[i:j] {
		moved = append(moved, e.f)
	}
	m.fragCopy = moved
	kept := append(sp.frags[:i], sp.frags[j:]...)
	for x := len(kept); x < len(sp.frags); x++ {
		sp.frags[x] = anchoredFrag{}
	}
	sp.frags = kept
	sp.mu.Unlock()

	// The migration target: the smallest anchor strictly above a across
	// every stripe (a's own entries are already gone), or the supremum.
	found := false
	var succ data.Key
	var succSp *stripe
	for _, osp := range m.stripes {
		idx := sort.Search(len(osp.frags), func(x int) bool { return osp.frags[x].anchor > a })
		if idx == len(osp.frags) {
			continue
		}
		if k := osp.frags[idx].anchor; !found || k < succ {
			succ, succSp, found = k, osp, true
		}
	}
	if !found {
		for _, f := range moved {
			hold := m.rangeHolds[f.tx][f.handle]
			if hold == nil {
				continue
			}
			hold.counts[hold.slot(sp.idx)]--
			if hold.sup {
				m.fragsReclaimed++
				continue
			}
			m.supFrags = append(m.supFrags, f)
			hold.sup = true
		}
		return
	}
	// Deduplicate against the handles already anchored at the successor,
	// then splice the rest in one pass.
	succSp.mu.Lock()
	si, sj := fragWindow(succSp.frags, succ)
	migrate := moved[:0]
	for _, f := range moved {
		dup := false
		for _, e := range succSp.frags[si:sj] {
			if e.f.tx == f.tx && e.f.handle == f.handle {
				dup = true
				break
			}
		}
		if dup {
			m.fragsReclaimed++
			if hold := m.rangeHolds[f.tx][f.handle]; hold != nil {
				hold.counts[hold.slot(sp.idx)]--
			}
			continue
		}
		migrate = append(migrate, f)
	}
	insertFragsAt(succSp, succ, migrate)
	succSp.mu.Unlock()
	for _, f := range migrate {
		hold := m.rangeHolds[f.tx][f.handle]
		if hold == nil {
			continue
		}
		hold.counts[hold.slot(sp.idx)]--
		hold.counts[hold.slot(succSp.idx)]++
	}
	m.fragCopy = migrate
}

// queuedAt reports whether any queued item request targets key. Called
// with the queue's stripe latched.
func queuedAt(q []*request, key data.Key) bool {
	for _, r := range q {
		if r.key == key {
			return true
		}
	}
	return false
}

// refreshAllRangeAwareLocked recomputes the wait edges of every queued
// request — item queues in every stripe (fragment-aware) and the range
// queue — the range counterpart of the gated refreshAllWaitersLocked.
// Called with rangeMu held.
//
//isolint:waiter-refresh
func (m *Manager) refreshAllRangeAwareLocked() {
	for _, sp := range m.stripes {
		sp.mu.Lock()
		for _, r := range sp.queue {
			m.wf.Refresh(r.tx, m.itemConflictHoldersLocked(sp, r))
		}
		sp.mu.Unlock()
	}
	m.refreshRangeWaitersLocked()
}

// grantRangeAwareLocked installs one drained request, re-verifying its
// conflict set under the final latches (candidates were computed with
// latches released between stripes). Reports whether the grant happened;
// a range back-out adds the stripes that briefly held its fragments to
// the caller's touched set so their waiters are re-evaluated. Called with
// rangeMu held.
//
//isolint:allow latchorder installs are batched — the only caller, drainRangeLocked, runs refreshAllRangeAwareLocked once after the grant loop, before rangeMu is released
func (m *Manager) grantRangeAwareLocked(r *request, touched map[int]bool) bool {
	switch {
	case r.isRange:
		h := m.installRangeLocked(r)
		if again := m.rangeConflictHoldersLocked(r); len(again) != 0 {
			for i := range m.removeRangeHoldLocked(r.tx, h) {
				touched[i] = true
			}
			return false
		}
		m.rangeGrants++
		removeRequest(&m.rangeQ, r)
		m.rangeQLen.Store(int64(len(m.rangeQ)))
	case r.isGap:
		gc := m.gapCoverLocked(r.key)
		if len(gapConflicts(r.tx, r.key, r.im, gc)) != 0 {
			return false
		}
		// The gap grant is this protocol's atomic acquisition point: the
		// predicate twin's insert takes a single item lock, so no other
		// writer can slip an item lock in between a granted gap and the
		// insert's item acquisition. Mirror that by re-verifying the item
		// is free and installing the requester's hold here, under the
		// stripe latch, marked reserved; the insert's follow-up
		// AcquireItem consumes the reservation refs-neutrally. A recheck
		// request (RecheckGap) already holds the item exclusively, so the
		// install collapses to a no-op for it.
		sp := m.stripeOf(r.key)
		sp.mu.Lock()
		if st := sp.items[r.key]; st != nil {
			//isolint:ordered existence check only — any foreign holder vetoes the grant
			for owner := range st.holders {
				if owner != r.tx {
					sp.mu.Unlock()
					return false
				}
			}
		}
		if st := sp.items[r.key]; st == nil || st.holders[r.tx] == nil {
			m.installItemLocked(sp, r)
			sp.items[r.key].holders[r.tx].reserved = true
		}
		sp.mu.Unlock()
		m.inheritLocked(r.key, gc)
		spIdx := m.stripeIndex(r.key)
		m.gapGrants++
		m.gapStripe[spIdx].grants++
		removeRequest(&m.rangeQ, r)
		m.rangeQLen.Store(int64(len(m.rangeQ)))
		m.rangeActivity.Add(-1) // gap locks are transient: intent only
	default:
		sp := m.stripeOf(r.key)
		sp.mu.Lock()
		// Re-verify the request is still queued: between the candidate
		// scan and this grant, a concurrent striped-path drain (another
		// release observing rangeActivity already at zero) may have
		// granted it, and installing for an already-woken — possibly
		// already-terminated — transaction would leak an unreleasable
		// lock.
		if !queuedRequest(sp.queue, r) {
			sp.mu.Unlock()
			return false
		}
		if len(m.itemConflictHoldersLocked(sp, r)) != 0 {
			sp.mu.Unlock()
			return false
		}
		m.installItemLocked(sp, r)
		removeRequest(&sp.queue, r)
		sp.mu.Unlock()
	}
	m.wf.Remove(r.tx)
	return true
}

// refreshRangeWaitersLocked recomputes the wait edges of every queued
// range and gap request. Called with rangeMu held.
//
//isolint:waiter-refresh
func (m *Manager) refreshRangeWaitersLocked() {
	for _, r := range m.rangeQ {
		switch {
		case r.isRange:
			m.wf.Refresh(r.tx, m.rangeConflictHoldersLocked(r))
		case r.isGap:
			holders, _ := m.gapItemHoldersLocked(r.tx, r.key)
			m.wf.Refresh(r.tx, unionTxIDs(
				gapConflicts(r.tx, r.key, r.im, m.gapCoverLocked(r.key)), holders))
		}
	}
}

// queuedRequest reports whether req is still present in q. Called with
// the queue's latch held.
func queuedRequest(q []*request, req *request) bool {
	for _, r := range q {
		if r == req {
			return true
		}
	}
	return false
}

func sortedTxIDs(seen map[TxID]bool) []TxID {
	if len(seen) == 0 {
		return nil
	}
	out := make([]TxID, 0, len(seen))
	for tx := range seen {
		out = append(out, tx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
