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
//     while no fragment is held or wanted (one atomic counter) every fast
//     path is byte-for-byte the striped item path, and even with a live scan, item operations consult only
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
// # Densification
//
// An install that anchors a fragment at a key carrying none before — a
// fresh snapshot key, or a rowless lock-table-resident key, inside a gap
// an older scan covers — would shadow that gap's cover: the gap below the
// new anchor would be checked against the new scan's fragment alone. So
// each new anchor k first inherits its pre-install cover
// (densifyAnchorsLocked), less every fragment whose predicate's lower key
// bound lies above k. Dropping those is sound by the GC's argument: a
// fragment's predicate never matches a key outside its bounds, and the
// fragments at k decide only writes at k and inserts into the gap below
// k — keys at or below k, all outside such a fragment's bounds. Scans of
// disjoint key ranges therefore copy none of each other's fragments.
//
// # Admission
//
// Range and gap requests share one admission path (acquireRangeAware), one
// conflict rule (rangeWaiterConflictsLocked) and one grant step
// (grantRangeAwareLocked), which also serves the drain. A range grant is
// optimistic install-then-validate: fragments are installed stripe by
// stripe under each stripe's latch, then the conflict read runs once more,
// and a conflicting writer either saw an installed fragment under its
// stripe latch (and waited) or latched its exclusive lock before the
// validation visit (and the install is backed out) — no conflict is missed
// without any global quiescing.
//
// The conflict read is not atomic either: it latches one stripe at a
// time. So a request that cannot be granted at once is first published to
// rangeQ and drained, and only then reads the conflict set that decides
// it, through the cycle-checked AddWaiter. Publication orders every item
// operation behind that read: item operations take rangeMu only after
// their stripe work, never inside a stripe latch, and every item grant and
// every release checks rangeQLen after it (drainRangeIfWaiters). A writer
// granted in a stripe the read had already passed sees the published
// request and refreshes its edges behind rangeMu before it returns, so
// before it can wait itself — and if it then waits on the scan, its own
// AddWaiter sees the edge and it is the victim. A holder the read saw
// that releases afterwards sees the request and drains it. rangeMu is
// shared by range operations with each other; item operations touch it
// only while range waiters exist (rangeQLen) or fragments are live
// (rangeActivity).
package lock

import (
	"slices"
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
// protected, the anchors (present keys in [Lo, Hi), ascending — the
// store's index run), and the ceiling (first present key at or above
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
// appends the anchor set as sorted runs into the manager's reusable
// buffer (see sv.Store.AppendRangeAnchors) and returns only the
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
func (m *Manager) AcquireRange(tx TxID, spec RangeSpec) (RangeHandle, error) {
	req := request{tx: tx, mode: S, isRange: true, spec: spec, seq: m.seq.Add(1)}
	return m.acquireRangeAware(&req)
}

// AcquireGap acquires the covering gap's exclusive lock for an insert of
// key (insert-intention style): it blocks while any fragment covering key
// — at the gap's owning anchor or the supremum — belongs to another
// transaction and has a predicate satisfied by the insert's images, and
// while another transaction holds an item lock on key. The grant inherits
// the covering fragments onto key, so the gap's coverage survives the
// insert, and installs the insert's item hold atomically (consumed by the
// follow-up AcquireItem) — the predicate twin's insert is one item
// acquisition, and without the atomic install another writer could take
// the item while the granted insert was still in flight, manufacturing a
// deadlock the twin cannot produce. With no range activity it is one
// atomic load.
func (m *Manager) AcquireGap(tx TxID, key data.Key, im Images) error {
	return m.acquireGap(tx, key, im, false)
}

// RecheckGap re-runs the covering-gap check after the insert's exclusive
// item lock has installed. It closes the free-running race in which a
// scan begins between an insert's (empty) fast-path gap check and the
// item lock install: a range request counts itself before its conflict
// read, so either this recheck observes the scan's activity (and waits
// on its fragments under rangeMu), or the scan's read observes the
// already-installed item lock (and yields). Scripted runs execute one
// operation at a time, so the recheck is always a no-op there; it is not
// counted in the gap statistics. The re-inherit on grant also restores
// record coverage at the insert key if a fragment-GC sweep collected it
// between the first gap check and the item install — the row only becomes
// visible to other writers after this call returns.
func (m *Manager) RecheckGap(tx TxID, key data.Key, im Images) error {
	return m.acquireGap(tx, key, im, true)
}

func (m *Manager) acquireGap(tx TxID, key data.Key, im Images, recheck bool) error {
	if m.rangeActivity.Load() == 0 {
		return nil
	}
	req := request{tx: tx, mode: X, isGap: true, recheck: recheck, key: key, im: im, seq: m.seq.Add(1)}
	_, err := m.acquireRangeAware(&req)
	return err
}

// acquireRangeAware admits a range or gap request, given as the caller's
// stack value. A request nothing blocks is granted at once by the one
// grant step, grantRangeAwareLocked. Otherwise its heap copy is published
// to rangeQ and drained — the drain may grant it — and only then is the
// conflict set that decides it read and handed to AddWaiter, so the wait
// is cycle-checked against every holder the read saw; why no holder can
// slip past that read is argued in the package comment. Returns the range
// handle (zero for a gap request).
func (m *Manager) acquireRangeAware(req *request) (RangeHandle, error) {
	m.gate.RLock()
	m.rangeMu.Lock()
	rs := m.obs.Now()
	// Count the request before reading its conflicts: an insert's fast-path
	// gap check that still reads zero activity is thereby ordered before
	// this read, so the read (or the recheck an insert runs after its item
	// lock installs — see RecheckGap) is guaranteed to see one side of the
	// race. A granted range keeps the count until released; a granted gap
	// request and every refused one give it back.
	m.rangeActivity.Add(1)
	touched := m.touchedLocked()
	if len(m.rangeWaiterConflictsLocked(req)) == 0 && m.grantRangeAwareLocked(req, touched) {
		// The grant extends the conflict sets of queued requests in any
		// stripe; keep every wait edge current or a later cycle goes
		// undetected. With no admitted waiter anywhere the all-stripe
		// sweep is skipped — the common idle-scan case.
		if m.rangeQLen.Load() != 0 || !m.wf.Empty() {
			m.refreshAllRangeAwareLocked()
		}
		m.rangeMu.Unlock()
		m.obs.RecordRangeMuHold(rs)
		m.gate.RUnlock()
		return req.rhandle, nil
	}
	q := req.queued()
	q.pending = true
	m.rangeQ = append(m.rangeQ, q)
	m.rangeQLen.Store(int64(len(m.rangeQ)))
	// The drain also re-evaluates the stripes a backed-out install touched,
	// so no waiter keeps an edge toward fragments that are gone.
	granted := m.drainRangeLocked(touched)
	wait := slices.Contains(m.rangeQ, q)
	var err error
	if !wait {
		// Its own admission drain granted it: it never waited, so it is
		// not notified.
		granted = slices.DeleteFunc(granted, func(r *request) bool { return r == q })
	} else if on := m.rangeWaiterConflictsLocked(q); m.wf.AddWaiter(q.tx, on) {
		q.pending = false
		stripe := -1
		if q.isRange {
			m.rangeWaits++
		} else if stripe = m.stripeIndex(q.key); !q.recheck {
			m.gapWaits++
			m.gapStripe[stripe].waits++
		}
		m.obsWait(q, on, stripe)
		m.obs.RecordRangeMuHold(rs)
		m.notifyWaiting(q.tx, on)
	} else {
		m.deadlocks.Add(1)
		m.obsDeadlock(q.tx, on)
		removeRequest(&m.rangeQ, q)
		m.rangeQLen.Store(int64(len(m.rangeQ)))
		m.rangeActivity.Add(-1)
		wait, err = false, ErrDeadlock
	}
	m.rangeMu.Unlock()
	if !wait {
		m.obs.RecordRangeMuHold(rs)
	}
	m.gate.RUnlock()
	m.notifyGranted(granted)
	if wait {
		err = m.await(q)
	}
	if err != nil {
		return 0, err
	}
	return q.rhandle, nil
}

// ReleaseRange releases the key-range lock identified by handle, removing
// every fragment it installed (including inherited copies) and draining
// the affected stripes and the range queue.
func (m *Manager) ReleaseRange(tx TxID, h RangeHandle) {
	m.gate.RLock()
	m.rangeMu.Lock()
	rs := m.obs.Now()
	touched := m.touchedLocked()
	m.removeRangeHoldLocked(tx, h, touched)
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
	touched := m.touchedLocked()
	var cancelled []*request
	var buf [DefaultShards]int
	for _, spIdx := range m.takeFootprint(tx, buf[:0]) {
		sp := m.stripes[spIdx]
		sp.mu.Lock()
		sp.releaseTxLocked(tx)
		cancelled = append(cancelled, cancelQueued(&sp.queue, tx, m.wf)...)
		sp.mu.Unlock()
		touched.add(spIdx)
	}
	cancelled = append(cancelled, m.releaseAllRangesLocked(tx, touched)...)
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
	m.densifyAnchorsLocked(req.spec)
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
// densification an install is about to perform (see Densification in the
// package comment). gapCoverLocked consults only the smallest
// fragment-bearing anchor at or above an insert position, so a key that
// carried no fragment before — a fresh snapshot key, or an in-range
// lock-table-resident key with no row — would, once anchored, shadow the
// older scans' cover above it. Before any of this install's fragments
// land, every such new anchor k inherits the members of its pre-install
// cover that can match at or below k.
//
// Only snapshot keys and in-range item keys can be new: an anchor already
// carrying fragments is not. Every new key up to the cover's anchor shares
// that one cover, copied into scratch because the splice shifts the live
// slices the lookup's view aliases; the copies land below the anchor, so
// the cover stays a pre-install one whatever order those keys take. Only
// new keys spanning several gaps are sorted, so that each later gap's
// lookup still runs above every copy already spliced. A no-op — one length
// sweep — while no fragment exists anywhere. Called with rangeMu held, the
// buckets filled and no stripe latch held; latches one stripe at a time.
func (m *Manager) densifyAnchorsLocked(spec RangeSpec) {
	if m.liveFragmentsLocked() == 0 {
		return
	}
	newKeys := m.newAnchors[:0]
	for i, sp := range m.stripes {
		bucket := m.runBuckets[i]
		sp.mu.Lock()
		for j, k := range bucket {
			if (j == 0 || k != bucket[j-1]) && !anchoredAt(sp.frags, k) {
				newKeys = append(newKeys, k)
			}
		}
		for k := range sp.items {
			if _, inBucket := slices.BinarySearch(bucket, k); !inBucket && spec.covers(k) && !anchoredAt(sp.frags, k) {
				newKeys = append(newKeys, k)
			}
		}
		sp.mu.Unlock()
	}
	m.newAnchors = newKeys
	if len(newKeys) == 0 {
		return
	}
	anchor, anchored := m.loadCoverLocked(slices.Min(newKeys))
	if anchored && slices.Max(newKeys) > anchor {
		slices.Sort(newKeys)
	}
	for _, k := range newKeys {
		if anchored && k > anchor {
			anchor, anchored = m.loadCoverLocked(k)
		}
		copies := m.fragCopy[:0]
		for _, c := range m.cover {
			if !c.bounded || k >= c.lo {
				copies = append(copies, c.f)
			}
		}
		m.fragCopy = copies
		m.spliceInheritedLocked(k, copies)
	}
	clear(m.cover)
}

// anchoredAt reports whether any entry of frags is anchored at key.
func anchoredAt(frags []anchoredFrag, key data.Key) bool {
	i, j := fragWindow(frags, key)
	return i < j
}

// coverFrag is one member of a densify cover, copied out of the live
// fragment slices together with its predicate's lower key bound.
type coverFrag struct {
	f       fragment
	lo      data.Key
	bounded bool
}

// loadCoverLocked copies the cover of key into m.cover and returns the
// cover's anchor (anchored false: the supremum). Called with rangeMu held.
func (m *Manager) loadCoverLocked(key data.Key) (anchor data.Key, anchored bool) {
	gc := m.gapCoverLocked(key)
	cover := m.cover[:0]
	for _, e := range gc.frags {
		cover = appendCoverFrag(cover, e.f)
	}
	for _, f := range gc.sup {
		cover = appendCoverFrag(cover, f)
	}
	m.cover = cover
	return gc.anchor, gc.anchored
}

func appendCoverFrag(cover []coverFrag, f fragment) []coverFrag {
	lo, _, bounded := predicate.KeyBounds(f.pred)
	return append(cover, coverFrag{f: f, lo: lo, bounded: bounded})
}

// liveFragmentsLocked counts the fragments held anywhere: every stripe's
// anchored entries plus the supremum fragments. Called with rangeMu held.
func (m *Manager) liveFragmentsLocked() int {
	n := len(m.supFrags)
	for _, sp := range m.stripes {
		n += len(sp.frags)
	}
	return n
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
// interleaved — one ascending run (the sv store's index, static anchors)
// fills every bucket in order, the ceiling above it, so the sort never
// fires. Called with rangeMu held.
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
	for _, b := range m.runBuckets {
		if !slices.IsSorted(b) {
			slices.Sort(b)
		}
	}
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
		slices.Sort(items)
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
// supremum — and adds the stripes that lost entries to touched. Called
// with rangeMu held.
func (m *Manager) removeRangeHoldLocked(tx TxID, h RangeHandle, touched stripeSet) {
	hm := m.rangeHolds[tx]
	hold := hm[h]
	delete(hm, h)
	if len(hm) == 0 {
		delete(m.rangeHolds, tx)
	}
	if hold == nil {
		return
	}
	for idx, spIdx := range hold.stripes {
		if hold.counts[idx] == 0 {
			continue
		}
		sp := m.stripes[spIdx]
		sp.mu.Lock()
		removeHandleFrags(sp, tx, h)
		sp.mu.Unlock()
		touched.add(spIdx)
	}
	if hold.sup {
		m.supFrags = dropCoarse(m.supFrags, tx, h)
	}
	m.freeHold(hold)
}

// releaseAllRangesLocked removes every range hold of tx and cancels its
// queued range/gap requests (ReleaseAll's range side), adding the stripes
// that lost fragments to touched. Returns the cancelled requests. Called
// with rangeMu held.
func (m *Manager) releaseAllRangesLocked(tx TxID, touched stripeSet) []*request {
	//isolint:ordered removals of tx's own distinct handles commute; grants drain afterward in queue order
	for h := range m.rangeHolds[tx] {
		m.removeRangeHoldLocked(tx, h, touched)
		m.rangeActivity.Add(-1)
	}
	cancelled := cancelQueued(&m.rangeQ, tx, m.wf)
	m.rangeQLen.Store(int64(len(m.rangeQ)))
	m.rangeActivity.Add(-int64(len(cancelled)))
	return cancelled
}

// touchedLocked returns the manager's scratch stripe set, emptied, for
// one release-and-drain. Called with rangeMu held.
func (m *Manager) touchedLocked() stripeSet {
	m.touched.reset()
	return m.touched
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

// gapConflicts filters the cover down to the conflicting holders, unsorted:
// a fragment of another transaction whose predicate is satisfied by either
// image of the insert.
func gapConflicts(tx TxID, key data.Key, im Images, gc gapCover) []TxID {
	var out []TxID
	for _, e := range gc.frags {
		if e.f.tx != tx && im.matches(e.f.pred, key) {
			out = append(out, e.f.tx)
		}
	}
	for _, f := range gc.sup {
		if f.tx != tx && im.matches(f.pred, key) {
			out = append(out, f.tx)
		}
	}
	return out
}

// inheritLocked copies the covering fragments onto key (the next-key
// inheritance of a granted insert). The cover is copied into scratch
// before the splice — the view may alias the very slice the splice shifts.
// A no-op when key is already the covering anchor. Called with rangeMu
// held.
func (m *Manager) inheritLocked(key data.Key, gc gapCover) {
	if gc.anchored && gc.anchor == key {
		return
	}
	copies := m.fragCopy[:0]
	for _, e := range gc.frags {
		copies = append(copies, e.f)
	}
	copies = append(copies, gc.sup...)
	m.fragCopy = copies
	m.spliceInheritedLocked(key, copies)
}

// spliceInheritedLocked anchors copies at key, registering each in its
// owner's hold so release stays exact — the one step a gap grant's and a
// densify's inheritance share. copies must not alias fragment state.
// Called with rangeMu held.
func (m *Manager) spliceInheritedLocked(key data.Key, copies []fragment) {
	if len(copies) == 0 {
		return
	}
	spIdx := m.stripeIndex(key)
	sp := m.stripes[spIdx]
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

// itemConflictHoldersLocked is an item request's whole conflict set: the
// same-key item holders; for an exclusive request, the owners of the
// fragments anchored at the key whose predicates its images satisfy; and
// the holders of conflicting-mode predicate locks whose predicates its
// images satisfy. Sorted and deduplicated. Called with the key's stripe
// latched under the shared gate (or the gate exclusive), which fixes all
// three. An exclusive request's before-image is read here first
// (exactBeforeLocked): every grant decision, immediate or in a drain,
// passes through this read.
func (m *Manager) itemConflictHoldersLocked(sp *stripe, req *request) []TxID {
	st := sp.items[req.key]
	m.exactBeforeLocked(st, req)
	out := itemConflictHolders(st, req)
	n := len(out)
	if req.mode == X && len(sp.frags) != 0 {
		i, j := fragWindow(sp.frags, req.key)
		for _, e := range sp.frags[i:j] {
			if e.f.tx != req.tx && req.im.matches(e.f.pred, req.key) {
				out = append(out, e.f.tx)
			}
		}
	}
	for i := range m.preds {
		ps := &m.preds[i]
		if ps.tx != req.tx && conflicts(req.mode, ps.mode) && req.im.matches(ps.pred, req.key) {
			out = append(out, ps.tx)
		}
	}
	if len(out) == n {
		return out
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// drainRangeIfWaiters runs the range-aware drain when any range or gap
// request is queued (one atomic load otherwise). The striped paths call it
// after their stripe work: after an immediate item grant, whose holder may
// extend a queued request's conflict set, and after a striped release,
// which read zero range activity at entry and may since have released a
// holder that a newly published request read as a conflict — that waiter
// is woken by this drain or by none. Called with the gate held shared and
// no stripe latch held.
func (m *Manager) drainRangeIfWaiters() []*request {
	if m.rangeQLen.Load() == 0 {
		return nil
	}
	m.rangeMu.Lock()
	granted := m.drainRangeLocked(m.touchedLocked())
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
func (m *Manager) drainRangeLocked(touched stripeSet) []*request {
	var granted []*request
	for {
		// The grantable waiter first in grant order. The touched stripes
		// are recomputed each pass: a range grant backed out inside the
		// loop adds the stripes that briefly held its fragments, whose item
		// waiters must be re-evaluated too.
		var best *request
		m.drainStripes = touched.appendIndices(m.drainStripes[:0])
		for _, i := range m.drainStripes {
			sp := m.stripes[i]
			sp.mu.Lock()
			for _, r := range sp.queue {
				if grantsBefore(r, best) && len(m.itemConflictHoldersLocked(sp, r)) == 0 {
					best = r
				}
			}
			sp.mu.Unlock()
		}
		for _, r := range m.rangeQ {
			if grantsBefore(r, best) && len(m.rangeWaiterConflictsLocked(r)) == 0 {
				best = r
			}
		}
		if best == nil {
			break
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
// queue — the range counterpart of the gated refreshAllWaitersLocked. A
// pending range or gap request — published by acquireRangeAware but not
// yet decided — is skipped: its edges are recorded only by the
// cycle-checked AddWaiter that decides it. Called with rangeMu held.
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
	for _, r := range m.rangeQ {
		if !r.pending {
			m.wf.Refresh(r.tx, m.rangeWaiterConflictsLocked(r))
		}
	}
}

// grantRangeAwareLocked is the one grant step of the range-aware
// protocol: it installs one request — an immediate range or gap grant, or
// a drained waiter of any kind — re-verifying its conflict set under the
// final latches (the caller's read released latches between stripes).
// Reports whether the grant happened. A range is installed optimistically
// and then validated: a conflicting writer either saw an installed
// fragment under its stripe latch (and waited) or installed its exclusive
// lock before the validation visit, and then the install is backed out,
// the stripes that briefly held its fragments joining the caller's touched
// set so their waiters are re-evaluated. Called with rangeMu held.
//
//isolint:allow latchorder installs are batched — drainRangeLocked refreshes once after its grant loop and acquireRangeAware after an immediate grant, both before rangeMu is released
func (m *Manager) grantRangeAwareLocked(r *request, touched stripeSet) bool {
	switch {
	case r.isRange:
		h := m.installRangeLocked(r)
		if len(m.rangeWaiterConflictsLocked(r)) != 0 {
			m.removeRangeHoldLocked(r.tx, h, touched)
			return false
		}
		m.rangeGrants++
		removeRequest(&m.rangeQ, r)
		m.rangeQLen.Store(int64(len(m.rangeQ)))
	case r.isGap:
		// The gap grant is this protocol's atomic acquisition point: the
		// predicate twin's insert takes a single item lock, so no other
		// writer can slip an item lock in between a granted gap and the
		// insert's item acquisition. Mirror that by re-verifying the item
		// is free and installing the requester's hold here, under the
		// stripe latch, marked reserved; the insert's follow-up
		// AcquireItem consumes the reservation refs-neutrally. A recheck
		// request (RecheckGap) already holds the item exclusively, so the
		// install collapses to a no-op for it. The before-image is read
		// under the same latch, as the twin's item grant reads it, and the
		// reserved hold keeps it.
		sp := m.stripeOf(r.key)
		sp.mu.Lock()
		st := sp.items[r.key]
		m.exactBeforeLocked(st, r)
		if st != nil {
			for _, h := range st.holders {
				if h.tx != r.tx {
					sp.mu.Unlock()
					return false
				}
			}
		}
		gc := m.gapCoverLocked(r.key)
		if len(gapConflicts(r.tx, r.key, r.im, gc)) != 0 {
			sp.mu.Unlock()
			return false
		}
		if st == nil || st.holder(r.tx) == nil {
			m.installItemLocked(sp, r).reserved = true
		}
		sp.mu.Unlock()
		m.inheritLocked(r.key, gc)
		if !r.recheck {
			m.gapGrants++
			m.gapStripe[m.stripeIndex(r.key)].grants++
		}
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
		if !slices.Contains(sp.queue, r) {
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

// rangeWaiterConflictsLocked is the one conflict rule of range and gap
// requests: admission, the drain's candidate scan, the grant step's
// validation and the edge refresh all read it. A range request conflicts
// with every other transaction's exclusive item hold, in any stripe, whose
// row image satisfies its predicate (the AcquirePred rule, swept one
// stripe at a time). A gap request conflicts with the owners of the
// covering fragments its insert images satisfy and with every other holder
// of an item lock on its key — the predicate twin's insert is one item
// acquisition, whose sweep spans item holders and predicate owners alike;
// a self-held Shared lock there marks the request the twin's upgrade, with
// the same drain priority (stable while it waits). Sorted and
// deduplicated. Called with rangeMu held and no stripe latch held.
func (m *Manager) rangeWaiterConflictsLocked(r *request) []TxID {
	var out []TxID
	if r.isGap {
		sp := m.stripeOf(r.key)
		sp.mu.Lock()
		st := sp.items[r.key]
		m.exactBeforeLocked(st, r)
		if st != nil {
			for _, h := range st.holders {
				if h.tx != r.tx {
					out = append(out, h.tx)
				} else {
					r.upgrade = h.mode == S
				}
			}
		}
		sp.mu.Unlock()
		out = append(out, gapConflicts(r.tx, r.key, r.im, m.gapCoverLocked(r.key))...)
	} else {
		for _, sp := range m.stripes {
			sp.mu.Lock()
			//isolint:ordered the collected holders are sorted and deduplicated before return
			for key, st := range sp.items {
				for i := range st.holders {
					h := &st.holders[i]
					if h.tx != r.tx && conflicts(r.mode, h.mode) && h.im.matches(r.spec.Pred, key) {
						out = append(out, h.tx)
					}
				}
			}
			sp.mu.Unlock()
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
