package exerciser

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/obs"
	"isolevel/internal/phenomena"
	"isolevel/internal/schedule"
)

// Family is one concurrency-control engine family and the isolation
// levels it implements.
type Family struct {
	Name   string
	Levels []engine.Level
	// Multiversion marks the families whose traces need the §4.2 MV→SV
	// mapping before checking (single-version families' recorded traces
	// are already in conflict order).
	Multiversion bool
	New          func(shards int) engine.DB
}

// Families lists the engine families of every campaign. Together their
// level lists cover all eight levels of the extended Table 4. locking and
// keyrange implement the same six Table 2 degrees with different phantom
// protocols, so a uniform campaign's cross-family divergence check doubles
// as a continuous equivalence proof between the predicate table and
// key-range locking. mv is the one multiversion engine (internal/mvcc):
// a uniform campaign runs it at each of its levels, a mixed one
// interleaves SNAPSHOT ISOLATION and READ CONSISTENCY transactions in one
// store, as the locking families interleave their degrees in one lock
// manager.
func Families() []Family {
	return []Family{
		lockingFamily(),
		keyrangeFamily(),
		mvFamily(),
	}
}

func mvFamily() Family {
	return Family{Name: "mv", Levels: []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency},
		Multiversion: true, New: func(s int) engine.DB {
			if s > 0 {
				return mvcc.NewDB(mvcc.WithShards(s))
			}
			return mvcc.NewDB()
		}}
}

func lockingFamily() Family {
	return Family{Name: "locking", Levels: locking.LockingLevels, New: func(s int) engine.DB {
		if s > 0 {
			return locking.NewDB(locking.WithShards(s))
		}
		return locking.NewDB()
	}}
}

// keyrangeFamily is the locking scheduler with key-range (next-key)
// phantom prevention instead of the gated predicate table. Same Table 2
// levels, same oracle rows — any divergence from the locking family is a
// bug in one of the two protocols.
func keyrangeFamily() Family {
	return Family{Name: "keyrange", Levels: locking.LockingLevels, New: func(s int) engine.DB {
		if s > 0 {
			return locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange), locking.WithShards(s))
		}
		return locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
	}}
}

// RunResult is one schedule executed on one engine under one level
// assignment.
type RunResult struct {
	Family string
	// Assign is the per-transaction level assignment the run executed
	// under (uniform for non-mixed campaigns).
	Assign Assign
	// Raw is the recorder trace in script transaction numbers — the order
	// operations took effect inside the engine.
	Raw history.History
	// Normalized is the single-valued form the oracle checks: the raw
	// trace for the locking family (recorded under locks, so trace order
	// is conflict order), and the paper's MV→SV mapping for the
	// multiversion families — each SNAPSHOT ISOLATION transaction's reads
	// at its start timestamp and writes at its commit timestamp, each
	// READ CONSISTENCY transaction's reads at their statement snapshots —
	// merged into one event stream so mixed runs normalize coherently.
	Normalized history.History
	// Attr is the streaming attributed profile of Normalized: exhibited
	// phenomena with their participating transaction pairs.
	Attr map[phenomena.ID]map[phenomena.Pair]bool
	// Profile is Attr's key set (kept for stats and divergence checks).
	Profile map[phenomena.ID]bool
	// MVTxns are the SNAPSHOT ISOLATION transactions' timestamped exports
	// (nil for other families), used for the first-committer-wins interval
	// invariant.
	MVTxns []deps.MVTxn
	// mvReads / mvCommits are the multiversion families' timestamped
	// reads and committed write sets (nil for locking), for the
	// snapshot-read value certification.
	mvReads   []mvRead
	mvCommits []mvCommit
	// rangeReads are the multiversion families' timestamped range-scan
	// result sets, for the range-read (phantom) certification.
	rangeReads []rangeRead
	// Committed / Aborted index script transaction outcomes.
	Committed map[int]bool
	Aborted   map[int]bool
	// Locks snapshots the engine's lock-manager counters after the run
	// (zero value for engines without a lock manager). Campaigns aggregate
	// these; GapGrants > 0 is the proof generated DML reached the
	// key-range gap path.
	Locks lock.Stats
	// Sink is the run's observability sink: a virtual-clock flight
	// recorder attached to engines that support it (nil otherwise). The
	// virtual clock ticks once per recorded instant and the lockstep
	// runner executes at most one engine op at a time, so the event
	// stream — ticks included — is deterministic across reruns, worker
	// counts, and the race detector.
	Sink *obs.Sink
}

// mvRead is one exported read with the snapshot slot it executed at.
type mvRead struct {
	slot   int64
	tx     int
	key    data.Key
	val    int64
	hasVal bool
}

// mvVersion is one key's state after a committed write set applies:
// either a value or a tombstone (the row was deleted).
type mvVersion struct {
	val     int64
	deleted bool
}

// mvCommit is one committed transaction's final write values (or
// tombstones) at its commit slot.
type mvCommit struct {
	slot   int64
	writes map[data.Key]mvVersion
}

// rangeRead is one exported range scan: the snapshot slot it executed
// at, the scanned interval, and the result set it returned.
type rangeRead struct {
	slot   int64
	tx     int
	lo, hi data.Key
	keys   []data.Key
	vals   []int64
}

// mvExporter is implemented by mvcc.SITx.
type mvExporter interface {
	MVTxn() (start, commit int64, committed bool, reads, writes history.History)
}

// svExporter is implemented by mvcc.RCTx.
type svExporter interface {
	SVTrace() (committed bool, commitSlot int64, reads []mvcc.TimedRead, writes history.History)
}

// rangeExporter is implemented by mvcc.SITx and mvcc.RCTx.
type rangeExporter interface {
	RangeReads() []mvcc.RangeRead
}

// RunOne replays the schedule on a fresh engine of the family under the
// given per-transaction level assignment through the deterministic
// lockstep runner, then normalizes the recorded trace for checking.
// flightDepth is the per-run flight-recorder capacity: deep enough to
// hold every event a default-sized schedule emits, so finding timelines
// show the whole run rather than a truncated tail.
const flightDepth = 512

func RunOne(s *Schedule, fam Family, assign Assign, shards int) (*RunResult, error) {
	db := fam.New(shards)
	var sink *obs.Sink
	if so, ok := db.(interface{ SetObs(*obs.Sink) }); ok {
		sink = obs.NewSink(obs.NewVirtualClock()).WithFlight(flightDepth)
		so.SetObs(sink)
	}
	db.Load(s.Setup()...)
	steps, cap := s.Steps()
	// Every engine that can block reports waits through the lock
	// observer, so the step timeout is pure backstop; the default 250ms
	// is generous on an idle box but a CPU-starved parallel campaign can
	// exceed it and misclassify a merely slow op as blocked, which
	// perturbs dispatch order and breaks byte-for-byte determinism across
	// worker counts.
	opts := schedule.Options{
		Level: assign.Uniform, PerTx: assign.PerTx,
		StepTimeout: 10 * time.Second, DrainTimeout: 30 * time.Second,
	}
	res, err := schedule.Run(db, opts, steps)
	if err != nil {
		return nil, fmt.Errorf("exerciser: %s at %s (schedule seed %d): %w", fam.Name, assign, s.Seed, err)
	}
	rr := &RunResult{
		Family:    fam.Name,
		Assign:    assign,
		Raw:       res.History,
		Committed: res.Committed,
		Aborted:   res.Aborted,
		Sink:      sink,
	}
	if ls, ok := db.(interface{ LockStats() lock.Stats }); ok {
		rr.Locks = ls.LockStats()
	}
	if fam.Multiversion {
		rr.Normalized = mvNormalize(s, cap, rr)
	} else {
		rr.Normalized = res.History
	}
	rr.Attr = phenomena.Attribution(rr.Normalized)
	rr.Profile = make(map[phenomena.ID]bool, len(rr.Attr))
	for id := range rr.Attr {
		rr.Profile[id] = true
	}
	return rr, nil
}

// mvNormalize maps a multiversion run — pure SI, pure RC, or mixed — to
// its single-valued history: every captured transaction contributes
// timestamped event blocks (per the slot convention shared by SITx.MVTxn
// and RCTx.SVTrace: commits at even slots 2*ts, snapshot reads at the odd
// slot just above, 2*ts+1), and one MapEventsToSV call orders them all.
// Along the way it collects the SI interval exports (for the FCW
// invariant) and every timestamped read / committed write set (for the
// snapshot-read value certification).
func mvNormalize(s *Schedule, cap *capture, rr *RunResult) history.History {
	var events []deps.SVEvent
	seq := 0
	for _, txn := range s.Txns() {
		if rx, ok := cap.tx(txn).(rangeExporter); ok {
			for _, x := range rx.RangeReads() {
				rr.rangeReads = append(rr.rangeReads, rangeRead{
					slot: x.Slot, tx: txn, lo: x.Lo, hi: x.Hi, keys: x.Keys, vals: x.Vals,
				})
			}
		}
		switch tx := cap.tx(txn).(type) {
		case svExporter:
			committed, commitSlot, reads, writes := tx.SVTrace()
			lastRead := int64(0)
			for _, r := range reads {
				op := r.Op
				op.Tx = txn
				events = append(events, deps.SVEvent{TS: int64(r.TS), Seq: seq, Ops: history.History{op}})
				seq++
				lastRead = int64(r.TS)
				rr.mvReads = append(rr.mvReads, mvRead{slot: int64(r.TS), tx: txn, key: op.Item, val: op.Value, hasVal: op.HasValue})
			}
			var tail history.History
			ts := lastRead
			if committed {
				for _, op := range writes {
					op.Tx = txn
					tail = append(tail, op)
				}
				tail = append(tail, history.Op{Tx: txn, Kind: history.Commit, Version: -1})
				ts = commitSlot
				if len(writes) > 0 {
					c := mvCommit{slot: commitSlot, writes: map[data.Key]mvVersion{}}
					for _, op := range writes {
						c.writes[op.Item] = commitVersion(op)
					}
					rr.mvCommits = append(rr.mvCommits, c)
				}
			} else {
				tail = history.History{{Tx: txn, Kind: history.Abort, Version: -1}}
			}
			events = append(events, deps.SVEvent{TS: ts, Seq: seq, Ops: tail})
			seq++
		case mvExporter:
			start, commit, committed, reads, writes := tx.MVTxn()
			t := deps.MVTxn{Tx: txn, Start: start, Commit: commit, Committed: committed}
			for _, op := range reads {
				op.Tx = txn
				t.Reads = append(t.Reads, op)
			}
			for _, op := range writes {
				op.Tx = txn
				t.Writes = append(t.Writes, op)
			}
			rr.MVTxns = append(rr.MVTxns, t)
			ev := deps.TxEvents(t, seq)
			events = append(events, ev[0], ev[1])
			seq += 2
			for _, op := range t.Reads {
				rr.mvReads = append(rr.mvReads, mvRead{slot: t.Start, tx: txn, key: op.Item, val: op.Value, hasVal: op.HasValue})
			}
			if committed && len(t.Writes) > 0 {
				c := mvCommit{slot: t.Commit, writes: map[data.Key]mvVersion{}}
				for _, op := range t.Writes {
					c.writes[op.Item] = commitVersion(op)
				}
				rr.mvCommits = append(rr.mvCommits, c)
			}
		}
	}
	return deps.MapEventsToSV(events)
}

// commitVersion maps an exported write op to the post-commit state of
// its key: Delete kind (no after-image) becomes a tombstone, everything
// else the written value.
func commitVersion(op history.Op) mvVersion {
	if op.Kind == history.Delete || !op.HasValue {
		return mvVersion{deleted: true}
	}
	return mvVersion{val: op.Value}
}

// Finding is one oracle violation (or divergence) discovered by a
// campaign.
type Finding struct {
	// Index and SchedSeed identify the schedule within the campaign:
	// `isolevel fuzz -seed <campaign seed> -start <Index> -n 1` reruns it.
	Index     int
	SchedSeed int64
	Family    string
	// Assign is the level assignment the schedule executed under: uniform
	// for plain campaigns, per-transaction for -mixed ones.
	Assign Assign
	// Kind classifies the finding: "oracle" (a phenomenon charged to a
	// transaction whose level forbids it), "serializability" (cyclic
	// dependency graph with every transaction at SERIALIZABLE), "fcw"
	// (overlapping committed write sets under Snapshot Isolation),
	// "provenance" (a read observed a value nobody wrote, or missed a row
	// that was loaded and never deleted), "mv-read" (a snapshot read
	// returning the wrong version's value or presence), "range-read" (a
	// range scan's result set disagrees with the newest committed state of
	// its interval below its snapshot slot), or "divergence" (two families
	// at the same level disagree on the phenomenon profile; informational).
	Kind   string
	IDs    []phenomena.ID
	Detail string
	// History is the normalized history that exhibits the finding,
	// predicate names canonicalized so it replays through `isolevel check`.
	History history.History
	// Minimized is the shrinker's output: the smallest sub-schedule that
	// still reproduces the finding, rendered as its intended history. Nil
	// when shrinking was not requested.
	Minimized history.History
	// Timeline is the run's flight-recorder tail (virtual-clock ticks, so
	// identical across reruns and worker counts): the engine-level event
	// sequence — begins, lock waits, grants, upgrades, commits,
	// aborts — that led to the finding.
	Timeline []string
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] schedule %d (seed %d) on %s at %s", f.Kind, f.Index, f.SchedSeed, f.Family, f.Assign)
	if len(f.IDs) > 0 {
		ids := make([]string, len(f.IDs))
		for i, id := range f.IDs {
			ids[i] = string(id)
		}
		fmt.Fprintf(&b, ": %s", strings.Join(ids, ","))
	}
	if f.Detail != "" {
		fmt.Fprintf(&b, " (%s)", f.Detail)
	}
	fmt.Fprintf(&b, "\n  history: %s", f.History)
	if f.Minimized != nil {
		fmt.Fprintf(&b, "\n  minimized: %s", f.Minimized)
	}
	if len(f.Timeline) > 0 {
		fmt.Fprintf(&b, "\n  timeline (%d events):", len(f.Timeline))
		for _, ev := range f.Timeline {
			fmt.Fprintf(&b, "\n    %s", ev)
		}
	}
	if f.Assign.Mixed() {
		// The replay annotation: paste above either history in a file and
		// `isolevel check -f` classifies it with the same per-transaction
		// oracle.
		fmt.Fprintf(&b, "\n  levels: # levels: %s", f.Assign.Annotation())
	}
	return b.String()
}

// Check runs every oracle over the run result and returns its findings
// (without Index/SchedSeed, which the campaign fills in). The judge
// assignment is the per-transaction contract traces are held to —
// normally the assignment the run executed under (rr.Assign); campaigns
// with the -oracle override, and fault-injection tests, judge against a
// different one.
func Check(s *Schedule, rr *RunResult, o *Oracle, judge Assign) []Finding {
	var out []Finding
	base := Finding{
		SchedSeed: s.Seed,
		Family:    rr.Family,
		Assign:    rr.Assign,
		History:   canonPreds(rr.Normalized),
	}
	if rr.Sink != nil {
		// timelineTail bounds the events a finding reprints; the full ring
		// stays on rr.Sink for callers that want more.
		const timelineTail = 24
		base.Timeline = rr.Sink.Flight.TailStrings(timelineTail)
	}

	// Per-transaction Table 4 oracle: no witnessed phenomenon may be
	// charged to a transaction whose own level forbids it.
	if charges := o.Charges(rr.Attr, judge.Level); len(charges) > 0 {
		f := base
		f.Kind = "oracle"
		seen := map[phenomena.ID]bool{}
		var details []string
		for _, c := range charges {
			if !seen[c.ID] {
				seen[c.ID] = true
				f.IDs = append(f.IDs, c.ID)
			}
			details = append(details, fmt.Sprintf("%s charged to T%d=%s (vs T%d=%s)",
				c.ID, c.Victim, judge.Level(c.Victim).Code(), c.Other, judge.Level(c.Other).Code()))
		}
		f.Detail = strings.Join(details, "; ")
		out = append(out, f)
	}

	// Degree 3 is serializability itself: when every transaction of the
	// schedule ran at SERIALIZABLE, the committed projection of the trace
	// must have an acyclic dependency graph. (With any weaker transaction
	// in the mix the global graph may legally be cyclic — the weak
	// transaction accepted that — so the check applies only to all-SER
	// runs.)
	allSer := true
	for _, txn := range s.Txns() {
		if rr.Assign.Level(txn) != engine.Serializable {
			allSer = false
		}
	}
	if allSer {
		b := deps.NewBuilder()
		for _, op := range rr.Normalized {
			b.Feed(op)
		}
		if g := b.Graph(); g.Cycle() != nil {
			f := base
			f.Kind = "serializability"
			f.Detail = fmt.Sprintf("dependency cycle %v", g.Cycle())
			out = append(out, f)
		}
	}

	// First-committer-wins interval invariant: no two committed snapshot
	// transactions with overlapping execution intervals may have
	// intersecting write sets. (MVTxns holds exactly the SI transactions,
	// so in a mixed mv run RC transactions are — correctly — exempt.)
	if fcw := checkFCW(rr.MVTxns); fcw != "" {
		f := base
		f.Kind = "fcw"
		f.Detail = fcw
		out = append(out, f)
	}

	// Value provenance: every value a read observed must have been loaded
	// initially or written by some write in the raw trace (write values
	// are unique per schedule, so this certifies reads-from without
	// trusting engine timestamps).
	if prov := checkProvenance(s, rr.Raw); prov != "" {
		f := base
		f.Kind = "provenance"
		f.Detail = prov
		out = append(out, f)
	}

	// Snapshot-read certification (multiversion families): every exported
	// read must observe exactly the value of the newest committed write
	// below its snapshot slot (or the initial load, or the reader's own
	// write). This is the value-level check the mapped-trace patterns
	// cannot make: in the single-valued mapping reads sit at their
	// snapshot slot by construction, so a read-path bug — a dirty, fuzzy
	// or skewed read returning data from the wrong version — leaves the
	// mapped history looking clean. The values betray it.
	if msg := checkSnapshotReads(s, rr); msg != "" {
		f := base
		f.Kind = "mv-read"
		f.Detail = msg
		out = append(out, f)
	}

	// Range-read certification (multiversion families): every exported
	// range scan's result set must equal the newest committed state of its
	// interval below its snapshot slot — inserted rows visible once their
	// inserter committed in-snapshot, deleted rows gone, and nothing from
	// the future. This is the phantom check at the value level: a gap bug
	// that lets a scan miss a committed insert or resurrect a deleted row
	// shows up here even when the mapped trace happens to look clean.
	if msg := checkRangeReads(s, rr); msg != "" {
		f := base
		f.Kind = "range-read"
		f.Detail = msg
		out = append(out, f)
	}
	return out
}

// checkSnapshotReads verifies every timestamped read of a multiversion
// run against the run's committed write sets, presence included: a read
// below a row's creation or at-or-above its deletion must see no row,
// and a read of a live row must see the newest in-snapshot value.
// Own-write overlays (a cursor fetching a row its transaction already
// rewrote, a read after the transaction's own delete) are excused via
// the raw trace's per-transaction write and delete sets.
func checkSnapshotReads(s *Schedule, rr *RunResult) string {
	if len(rr.mvReads) == 0 {
		return ""
	}
	own := map[int]map[data.Key]map[int64]bool{}
	ownDel := map[int]map[data.Key]bool{}
	for _, op := range rr.Raw {
		if !op.Kind.IsWrite() || op.Item == "" {
			continue
		}
		if !op.HasValue {
			byKey := ownDel[op.Tx]
			if byKey == nil {
				byKey = map[data.Key]bool{}
				ownDel[op.Tx] = byKey
			}
			byKey[op.Item] = true
			continue
		}
		byKey := own[op.Tx]
		if byKey == nil {
			byKey = map[data.Key]map[int64]bool{}
			own[op.Tx] = byKey
		}
		vals := byKey[op.Item]
		if vals == nil {
			vals = map[int64]bool{}
			byKey[op.Item] = vals
		}
		vals[op.Value] = true
	}
	initial := map[data.Key]int64{}
	for i := 0; i < s.Params.Items; i++ {
		initial[itemName(i)] = InitialValue(i)
	}
	for _, r := range rr.mvReads {
		want, present := initial[r.key]
		bestSlot := int64(-1)
		for _, c := range rr.mvCommits {
			if c.slot >= r.slot || c.slot <= bestSlot {
				continue
			}
			if v, ok := c.writes[r.key]; ok {
				bestSlot = c.slot
				want, present = v.val, !v.deleted
			}
		}
		if r.hasVal && own[r.tx][r.key][r.val] {
			continue // own uncommitted write overlaid the snapshot
		}
		if !r.hasVal {
			if present && !ownDel[r.tx][r.key] {
				return fmt.Sprintf("T%d read %s at slot %d and saw no row; the snapshot holds %d", r.tx, r.key, r.slot, want)
			}
			continue
		}
		if !present {
			return fmt.Sprintf("T%d read %s=%d at slot %d; the snapshot holds no row", r.tx, r.key, r.val, r.slot)
		}
		if r.val != want {
			return fmt.Sprintf("T%d read %s=%d at slot %d; the snapshot holds %d", r.tx, r.key, r.val, r.slot, want)
		}
	}
	return ""
}

// checkRangeReads certifies every exported range scan's result set
// against the newest committed state of its interval below its snapshot
// slot. Keys the scanning transaction itself wrote or deleted are
// excused (its own uncommitted overlay legally perturbs its view of
// those keys); every other key of the interval must appear exactly when
// the snapshot holds it, with the snapshot's value.
func checkRangeReads(s *Schedule, rr *RunResult) string {
	if len(rr.rangeReads) == 0 {
		return ""
	}
	ownKeys := map[int]map[data.Key]bool{}
	for _, op := range rr.Raw {
		if op.Kind.IsWrite() && op.Item != "" {
			byKey := ownKeys[op.Tx]
			if byKey == nil {
				byKey = map[data.Key]bool{}
				ownKeys[op.Tx] = byKey
			}
			byKey[op.Item] = true
		}
	}
	for _, r := range rr.rangeReads {
		// Expected: initial rows of the interval, then every committed
		// write set below the scan's slot applied in commit order.
		expect := map[data.Key]int64{}
		for i := 0; i < s.Params.Items; i++ {
			if k := itemName(i); k >= r.lo && k < r.hi {
				expect[k] = InitialValue(i)
			}
		}
		var below []mvCommit
		for _, c := range rr.mvCommits {
			if c.slot < r.slot {
				below = append(below, c)
			}
		}
		sort.Slice(below, func(i, j int) bool { return below[i].slot < below[j].slot })
		for _, c := range below {
			for k, v := range c.writes {
				if k < r.lo || k >= r.hi {
					continue
				}
				if v.deleted {
					delete(expect, k)
				} else {
					expect[k] = v.val
				}
			}
		}
		actual := map[data.Key]int64{}
		for i, k := range r.keys {
			actual[k] = r.vals[i]
		}
		// Compare both directions in key order so a violation message is
		// deterministic across reruns.
		var keys []data.Key
		seen := map[data.Key]bool{}
		//isolint:ordered keys are sorted below before any comparison is reported
		for k := range expect {
			keys, seen[k] = append(keys, k), true
		}
		for k := range actual {
			if !seen[k] {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			if ownKeys[r.tx][k] {
				continue // scanning tx's own overlay governs this key
			}
			want, inSnap := expect[k]
			got, inScan := actual[k]
			switch {
			case inSnap && !inScan:
				return fmt.Sprintf("T%d scanned [%s, %s) at slot %d and missed %s; the snapshot holds %s=%d", r.tx, r.lo, r.hi, r.slot, k, k, want)
			case !inSnap && inScan:
				return fmt.Sprintf("T%d scanned [%s, %s) at slot %d and saw %s=%d; the snapshot holds no such row", r.tx, r.lo, r.hi, r.slot, k, got)
			case inSnap && inScan && got != want:
				return fmt.Sprintf("T%d scanned [%s, %s) at slot %d and saw %s=%d; the snapshot holds %d", r.tx, r.lo, r.hi, r.slot, k, got, want)
			}
		}
	}
	return ""
}

func checkFCW(txns []deps.MVTxn) string {
	for i := 0; i < len(txns); i++ {
		for j := i + 1; j < len(txns); j++ {
			a, b := txns[i], txns[j]
			if !a.Committed || !b.Committed {
				continue
			}
			if a.Commit <= b.Start || b.Commit <= a.Start {
				continue // disjoint execution intervals
			}
			for _, wa := range a.Writes {
				for _, wb := range b.Writes {
					if wa.Item != "" && wa.Item == wb.Item {
						return fmt.Sprintf("T%d and T%d both committed writes of %s with overlapping intervals", a.Tx, b.Tx, wa.Item)
					}
				}
			}
		}
	}
	return ""
}

func checkProvenance(s *Schedule, raw history.History) string {
	legal := map[data.Key]map[int64]bool{}
	preloaded := map[data.Key]bool{}
	for i := 0; i < s.Params.Items; i++ {
		legal[itemName(i)] = map[int64]bool{InitialValue(i): true}
		preloaded[itemName(i)] = true
	}
	deleted := map[data.Key]bool{}
	for _, op := range raw {
		if !op.Kind.IsWrite() || op.Item == "" {
			continue
		}
		if !op.HasValue {
			deleted[op.Item] = true // a delete: the row can legally vanish
			continue
		}
		set := legal[op.Item]
		if set == nil {
			set = map[int64]bool{}
			legal[op.Item] = set
		}
		set[op.Value] = true
	}
	for _, op := range raw {
		if !op.Kind.IsRead() || op.Item == "" {
			continue
		}
		if !op.HasValue {
			// A valueless read is legal only for a row that may be absent:
			// never loaded (an insert target) or deleted somewhere in the
			// trace. A preloaded, never-deleted row must always be found.
			if preloaded[op.Item] && !deleted[op.Item] {
				return fmt.Sprintf("T%d read %s and found no row (the item is loaded and never deleted)", op.Tx, op.Item)
			}
			continue
		}
		if !legal[op.Item][op.Value] {
			return fmt.Sprintf("T%d read %s=%d, a value nobody wrote", op.Tx, op.Item, op.Value)
		}
	}
	return ""
}

// canonPreds renames a recorded trace's predicate names (engine syntax
// like "val >= 1000") for emission. Pool predicates get the same fixed
// P/Q/R names the intended history (Schedule.History) uses, so a
// finding's "history:" and "minimized:" lines name each predicate
// identically; any other name falls back to first-appearance numbering.
// The result round-trips through the history parser.
func canonPreds(h history.History) history.History {
	names := map[string]string{}
	for i, p := range PredPool() {
		names[p.String()] = predCanonNames[i]
	}
	for i, kr := range RangePool() {
		names[kr.String()] = rangeCanonNames[i]
	}
	next := len(PredPool())
	canon := func(name string) string {
		if c, ok := names[name]; ok {
			return c
		}
		c := fmt.Sprintf("P%d", next)
		next++
		names[name] = c
		return c
	}
	out := make(history.History, len(h))
	for i, op := range h {
		if len(op.Preds) > 0 {
			renamed := make([]string, len(op.Preds))
			for j, p := range op.Preds {
				renamed[j] = canon(p)
			}
			op.Preds = renamed
		}
		out[i] = op
	}
	return out
}

// sortIDs returns the phenomena identifiers in presentation order.
func sortIDs(set map[phenomena.ID]bool) []phenomena.ID {
	var out []phenomena.ID
	for _, id := range phenomena.All {
		if set[id] {
			out = append(out, id)
		}
	}
	return out
}

// idsString renders a profile compactly for reports.
func idsString(set map[phenomena.ID]bool) string {
	ids := sortIDs(set)
	if len(ids) == 0 {
		return "-"
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, " ")
}
