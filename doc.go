// Package isolevel is a from-scratch Go reproduction of Berenson,
// Bernstein, Gray, Melton, O'Neil & O'Neil, "A Critique of ANSI SQL
// Isolation Levels" (SIGMOD 1995) — the paper that exposed the ambiguities
// of the ANSI SQL-92 isolation phenomena, introduced Dirty Write (P0),
// Lost Update (P4/P4C), Read Skew (A5A) and Write Skew (A5B), and defined
// Snapshot Isolation.
//
// The package provides:
//
//   - Live engines for every isolation type the paper characterizes: the
//     Table 2 locking scheduler (Degree 0 through SERIALIZABLE, including
//     Cursor Stability), the §4.2 Snapshot Isolation engine with
//     First-Committer-Wins, and the §4.3 Oracle-style Read Consistency
//     engine.
//   - The paper's history formalism: parse "w1[x] r2[x] c1 a2", detect
//     every phenomenon (P0–P4C, A1–A5B), build dependency graphs, test
//     conflict-serializability, and map Snapshot Isolation executions to
//     single-valued histories.
//   - A deterministic goroutine-per-transaction schedule runner that
//     executes the paper's interleavings against the live engines.
//   - Regenerators for every evaluation artifact: Tables 1–4 and the
//     Figure 2 isolation hierarchy, diffed against the published values.
//   - Concurrent workload generators plus a deterministic lockstep driver
//     (barrier-synchronized sessions) that forces read–write overlap on
//     any GOMAXPROCS, so first-committer-wins aborts and statement-level
//     read skew are exact, reproducible outcomes rather than scheduler
//     luck.
//
// All three engine families share one stripe-count knob. The
// multiversion engines commit through a striped path: the store shards
// version chains and commit latches across stripes, so transactions with
// disjoint write sets validate and install in parallel instead of
// queueing on a global commit mutex, and snapshots start at the
// timestamp oracle's installed watermark, which keeps them stable while
// commits race. The locking engine stripes its lock manager the same
// way: per-key-stripe lock tables with their own latches and wait
// queues, a cross-stripe predicate-lock table behind a shared-exclusive
// gate, and a standalone waits-for deadlock detector spanning all
// stripes. NewSnapshotDBShards / NewOracleRCDBShards / NewLockingDBShards
// / NewDBForShards set the count explicitly (default 16; 1 reproduces
// the old single-latch behavior everywhere).
//
// Quick start:
//
//	db := isolevel.NewSnapshotDB()
//	db.Load(isolevel.Scalar("x", 50), isolevel.Scalar("y", 50))
//	tx, _ := db.Begin(isolevel.SnapshotIsolation)
//	v, _ := isolevel.GetVal(tx, "x")
//	_ = isolevel.PutVal(tx, "y", v+40)
//	err := tx.Commit() // may be ErrWriteConflict: first-committer-wins
//
// Phantom prevention on the locking engine comes in two interchangeable
// protocols. The paper's literal mechanism is the predicate table: one
// cross-stripe lock per <search condition> behind a shared-exclusive gate
// (every predicate operation quiesces the stripe set). The practical
// mechanism real schedulers use is key-range (next-key) locking
// (NewKeyrangeDB, locking.WithPhantomProtection): a range scan decomposes
// its protection into per-stripe next-key fragments — one per existing
// key in the predicate's key range, each covering its anchor key and the
// gap below it, over the ordered key index the store maintains per stripe
// — and an insert acquires its covering gap's exclusive lock, inheriting
// the fragments onto the new key. Fragment conflicts are refined by the
// same row-image rule as predicate locks, so the two protocols are
// behaviorally equivalent (the fuzzer runs both families over identical
// schedules and diffs everything), but the keyrange engine never takes
// the gate's exclusive side: disjoint-key writers keep scaling with the
// stripe count even while a SERIALIZABLE scan holds its locks.
//
// Beyond the hand-written scenarios, the differential isolation fuzzer
// (internal/exerciser, `isolevel fuzz`) manufactures them: seeded random
// schedules replay deterministically against every engine family at every
// level, the recorded traces are normalized to the paper's single-valued
// form (locking traces directly; the multiversion engines through the
// MV→SV mapping of §4.2, per transaction for Snapshot Isolation and per
// statement for Read Consistency), streamed through incremental
// phenomenon and dependency-graph checkers, and cross-checked against a
// Table 4 oracle; violations are shrunk to minimal histories in the
// paper's notation. The pipeline:
//
//	     seed ─▶ generate (exerciser.Generate: grammar over items,
//	     │       predicates, cursors, inserts/deletes/range reads
//	     │       (the -mix i/d/s weights; rows appear and vanish
//	     │       mid-history), per-tx op lists, seeded merge)
//	     ▼
//	   replay ─▶ schedule.Run: lockstep runner, one engine op at a
//	     │       time (lock-wait observer + grant parking), per-tx
//	     │       levels, on every family × level cell
//	     ▼
//	   record ─▶ engine.Recorder (conflict-ordered trace) +
//	     │       timestamped MV exports (SITx.MVTxn, RCTx.SVTrace)
//	     ▼
//	normalize ─▶ deps.MapEventsToSV: the §4.2 MV→SV mapping merges
//	     │       every transaction's event blocks into one
//	     │       single-valued history (locking traces pass through)
//	     ▼
//	    check ─▶ phenomena.StreamAttribution (P0–A5B with participant
//	     │       pairs), deps.Builder (serializability), FCW interval,
//	     │       provenance, snapshot-read value certification
//	     ▼
//	    judge ─▶ exerciser.Oracle: Table 4 rows per transaction — a
//	     │       phenomenon is a violation only when charged to a
//	     │       transaction whose own level forbids it
//	     ▼
//	   shrink ─▶ drop transactions, then ops, to a fixpoint: minimal
//	             replayable history in the paper's notation
//
// An observability sink (internal/obs) rides alongside every stage: the
// replay wires a per-run virtual-clock flight recorder into the engine
// under test, so a finding carries a deterministic event timeline
// (begin/wait/grant/upgrade/commit/abort/deadlock) next to its
// minimized history, and the bench CLI wires the same hooks to wall-clock
// latency histograms, a deadlock flight dump, and a /metrics + pprof
// endpoint (-http). Hooks are nil-safe: with no sink attached the hot
// paths pay one pointer check and zero allocations.
//
// Isolation level is a per-transaction property throughout that pipeline,
// the way the paper's Table 2 defines each *transaction's* lock protocol:
// schedule.Options assigns a level per script transaction, the streaming
// checkers attribute every witnessed phenomenon to its participating
// transaction pair, and the oracle judges per transaction — a phenomenon
// is a violation only when charged to a transaction whose own level
// forbids it (a Degree 1 writer may exhibit P1 against itself; a
// REPEATABLE READ reader must never be the dirty-read victim of a
// degree >= 1 writer). `isolevel fuzz -mixed` samples a level per
// transaction (all six locking degrees in one lock manager; SNAPSHOT
// ISOLATION and READ CONSISTENCY interleaved on the unified mv engine of
// internal/mvcc), and `isolevel check -f` accepts "# levels: T1=RR T2=RC"
// annotations to replay mixed findings.
//
// Every property above leans on the replay being deterministic, so the
// repo lints for determinism statically: internal/analysis is a
// self-hosted static-analysis suite (cmd/isolint, run by `make lint` and
// CI ahead of the tests) that flags map-range iteration-order leaks and
// unseeded randomness in the deterministic packages, checks the lock
// manager's declared latch hierarchy, lock/unlock pairing on every
// control-flow path, and the install-then-refresh waits-for discipline.
// The bug classes it encodes are exactly the ones this codebase has had
// to fix by hand in review.
//
// See the examples/ directory for runnable demonstrations of the paper's
// anomalies and the cmd/isolevel CLI for table regeneration.
package isolevel
