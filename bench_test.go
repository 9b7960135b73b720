package isolevel_test

// The benchmark harness regenerates every evaluation artifact of the paper
// (Tables 1-4, Figure 2) and measures the operational counterparts of
// §4.2's qualitative performance claims. Run:
//
//	go test -bench=. -benchmem .
//
// Each table/figure bench executes one full regeneration per iteration and
// asserts it still matches the published values; the workload benches
// report commit throughput and abort rates as custom metrics so the
// "shape" claims (SI readers never block; FCW converts contention into
// aborts; long SI updaters starve) are visible in the output.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	isolevel "isolevel"
	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/exerciser"
	"isolevel/internal/matrix"
	"isolevel/internal/mv"
	"isolevel/internal/obs"
	"isolevel/internal/obs/wallclock"
	"isolevel/internal/predicate"
	"isolevel/internal/sv"
	"isolevel/internal/workload"
)

// latencyTimer records per-iteration latencies into an obs histogram and
// reports the distribution as p50-ns/p90-ns/p99-ns/max-ns bench metrics,
// which the benchjson pipeline embeds into the BENCH_*.json artifacts
// (compare with `benchjson -compare ... -metric p99`). ns/op only shows
// the mean; the percentiles expose tail effects — a gate convoy widens p99
// long before it moves the mean. The timer is harness-side: the engines
// under test keep their nil obs hooks, so the allocs/op regression guard
// measures the disabled-hook cost.
type latencyTimer struct {
	clk obs.Clock
	h   obs.Histogram
}

func newLatencyTimer() *latencyTimer { return &latencyTimer{clk: wallclock.New()} }

// time runs f and records its wall-clock duration. Safe for concurrent use
// (RunParallel bodies): the histogram is atomic.
func (t *latencyTimer) time(f func()) {
	start := t.clk.Now()
	f()
	t.h.Record(t.clk.Now() - start)
}

// start/stop are the closure-free form for per-op timing inside hot
// parallel loops, where a captured closure would add an allocation per
// operation and skew the allocs/op regression guard.
func (t *latencyTimer) start() int64 { return t.clk.Now() }

func (t *latencyTimer) stop(start int64) { t.h.Record(t.clk.Now() - start) }

func (t *latencyTimer) report(b *testing.B) {
	s := t.h.Snapshot()
	if s.Count == 0 {
		return
	}
	b.ReportMetric(float64(s.P50()), "p50-ns")
	b.ReportMetric(float64(s.P90()), "p90-ns")
	b.ReportMetric(float64(s.P99()), "p99-ns")
	b.ReportMetric(float64(s.Max), "max-ns")
}

// --- Table and figure regeneration benches ---

// BenchmarkTable1 regenerates Table 1 from the phenomenon-based acceptors.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := isolevel.Table1()
		if len(tbl.Rows) != 4 {
			b.Fatal("table 1 regeneration failed")
		}
	}
}

// BenchmarkTable2 regenerates Table 2 with live lock-duration probes.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, mismatches, err := isolevel.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(mismatches) != 0 {
			b.Fatalf("table 2 mismatches: %v", mismatches)
		}
	}
}

// BenchmarkTable3 regenerates the repaired Table 3.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := isolevel.Table3()
		if len(tbl.Rows) != 4 {
			b.Fatal("table 3 regeneration failed")
		}
	}
}

// BenchmarkTable4 regenerates the full Table 4 matrix on live engines and
// diffs it against the paper.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := isolevel.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if diffs := res.DiffPaper(); len(diffs) != 0 {
			b.Fatalf("table 4 diverged from the paper: %v", diffs)
		}
	}
}

// BenchmarkFigure2 measures the full eight-level hierarchy computation.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := isolevel.Table4AllLevels()
		if err != nil {
			b.Fatal(err)
		}
		h := isolevel.Figure2(res)
		if diffs := h.VerifyPaperAssertions(); len(diffs) != 0 {
			b.Fatalf("figure 2 diverged from the paper: %v", diffs)
		}
	}
}

// BenchmarkAnomalyScenario runs each Table 4 column's primary scenario at
// its most interesting level (one sub-bench per anomaly).
func BenchmarkAnomalyScenario(b *testing.B) {
	cases := []struct {
		id    string
		level isolevel.Level
	}{
		{"P0", isolevel.Degree0},
		{"P1", isolevel.ReadUncommitted},
		{"P4C", isolevel.CursorStability},
		{"P4", isolevel.ReadCommitted},
		{"P2", isolevel.ReadCommitted},
		{"P3", isolevel.RepeatableRead},
		{"A5A", isolevel.ReadCommitted},
		{"A5B", isolevel.SnapshotIsolation},
	}
	catalog := isolevel.Scenarios()
	for _, c := range cases {
		var sc isolevel.Scenario
		for _, cand := range catalog {
			if cand.ID == c.id && cand.Variant == "" {
				sc = cand
			}
		}
		b.Run(fmt.Sprintf("%s@%s", c.id, c.level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := isolevel.RunScenario(sc, c.level); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §4.2 performance-claim benches ---

const (
	benchAccounts = 64
	benchIters    = 50
)

// BenchmarkReadersVsWriters sweeps writer count for a fixed reader pool at
// the levels that tell §4.2's story. Expected shape: SI readers commit all
// their scans with zero aborts at every writer count, while SERIALIZABLE
// readers serialize against the writers (lower reader throughput, possible
// deadlock aborts).
func BenchmarkReadersVsWriters(b *testing.B) {
	for _, level := range []isolevel.Level{
		isolevel.ReadCommitted, isolevel.Serializable, isolevel.SnapshotIsolation,
	} {
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/writers=%d", level, writers), func(b *testing.B) {
				var readerCommits, readerAborts, writerCommits int64
				for i := 0; i < b.N; i++ {
					db := isolevel.NewDBFor(level)
					isolevel.LoadAccounts(db, benchAccounts, 100)
					r, w := isolevel.ReadersVsWriters(db, level, benchAccounts, 4, writers, benchIters)
					readerCommits += r.Commits
					readerAborts += r.Aborts
					writerCommits += w.Commits
				}
				b.ReportMetric(float64(readerCommits)/float64(b.N), "reader-commits/run")
				b.ReportMetric(float64(readerAborts)/float64(b.N), "reader-aborts/run")
				b.ReportMetric(float64(writerCommits)/float64(b.N), "writer-commits/run")
			})
		}
	}
}

// BenchmarkContentionSweep hammers a single hot counter at increasing
// worker counts. Expected shape: locking levels serialize (zero aborts at
// SERIALIZABLE come out as deadlock aborts under read-modify-write);
// SI converts every race into a first-committer-wins abort, so its abort
// rate climbs with contention while the committed counter stays exact.
func BenchmarkContentionSweep(b *testing.B) {
	for _, level := range []isolevel.Level{
		isolevel.ReadCommitted, isolevel.Serializable,
		isolevel.SnapshotIsolation, isolevel.ReadConsistency,
	} {
		for _, workers := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", level, workers), func(b *testing.B) {
				var commits, aborts int64
				for i := 0; i < b.N; i++ {
					db := isolevel.NewDBFor(level)
					m := isolevel.HotspotCounter(db, level, workers, benchIters)
					commits += m.Commits
					aborts += m.Aborts
				}
				b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
				b.ReportMetric(100*float64(aborts)/float64(max64(1, commits+aborts)), "abort-%")
			})
		}
	}
}

// BenchmarkLongRunningUpdater measures §4.2's long-transaction claim: the
// long SI updater is "unlikely to be the first writer of everything it
// writes" and aborts; the locking updater survives by blocking (or dies in
// a deadlock, never an FCW conflict).
func BenchmarkLongRunningUpdater(b *testing.B) {
	for _, level := range []isolevel.Level{isolevel.Serializable, isolevel.SnapshotIsolation} {
		b.Run(level.String(), func(b *testing.B) {
			var longCommits, fcwAborts int64
			for i := 0; i < b.N; i++ {
				db := isolevel.NewDBFor(level)
				isolevel.LoadAccounts(db, 16, 0)
				committed, err, _ := isolevel.LongRunningUpdate(db, level, 16, 4, 25)
				if committed {
					longCommits++
				} else if errors.Is(err, isolevel.ErrWriteConflict) {
					fcwAborts++
				}
			}
			b.ReportMetric(100*float64(longCommits)/float64(b.N), "long-commit-%")
			b.ReportMetric(100*float64(fcwAborts)/float64(b.N), "long-fcw-abort-%")
		})
	}
}

// BenchmarkTransferThroughput is the baseline cross-engine comparison on
// the uniform transfer workload (the invariant-preserving workload every
// engine must get right).
func BenchmarkTransferThroughput(b *testing.B) {
	for _, level := range []isolevel.Level{
		isolevel.ReadCommitted, isolevel.RepeatableRead, isolevel.Serializable,
		isolevel.SnapshotIsolation, isolevel.ReadConsistency,
	} {
		b.Run(level.String(), func(b *testing.B) {
			var commits, aborts int64
			for i := 0; i < b.N; i++ {
				db := isolevel.NewDBFor(level)
				isolevel.LoadAccounts(db, benchAccounts, 100)
				m := isolevel.TransferWorkload(db, level, benchAccounts, 4, benchIters)
				commits += m.Commits
				aborts += m.Aborts
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
			b.ReportMetric(100*float64(aborts)/float64(max64(1, commits+aborts)), "abort-%")
		})
	}
}

// BenchmarkShardSweepDisjointBatch measures the striped SI commit path on
// its best case: every worker owns a private key range, so no transaction
// ever conflicts and throughput is limited purely by commit-path
// serialization. shards=1 reproduces the old global-commit-mutex behavior
// (every commit queues); higher stripe counts let the disjoint write sets
// validate and install in parallel.
func BenchmarkShardSweepDisjointBatch(b *testing.B) {
	const workers, batch, iters = 8, 4, 100
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var commits, aborts int64
			lt := newLatencyTimer()
			for i := 0; i < b.N; i++ {
				db := isolevel.NewSnapshotDBShards(shards)
				isolevel.LoadAccounts(db, workers*batch, 0)
				var m isolevel.Metrics
				lt.time(func() {
					m = isolevel.BatchIncrementWorkload(db, isolevel.SnapshotIsolation, workers, iters, batch, true)
				})
				commits += m.Commits
				aborts += m.Aborts
			}
			if aborts != 0 {
				b.Fatalf("disjoint write sets aborted %d times", aborts)
			}
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
			lt.report(b)
		})
	}
}

// BenchmarkShardSweepTransfer sweeps the stripe count under the uniform
// transfer workload — mostly-disjoint write sets with occasional
// conflicts, the realistic middle ground between the disjoint-batch best
// case and the hotspot worst case.
func BenchmarkShardSweepTransfer(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var commits int64
			lt := newLatencyTimer()
			for i := 0; i < b.N; i++ {
				db := isolevel.NewSnapshotDBShards(shards)
				isolevel.LoadAccounts(db, benchAccounts, 100)
				var m isolevel.Metrics
				lt.time(func() {
					m = isolevel.TransferWorkload(db, isolevel.SnapshotIsolation, benchAccounts, 8, benchIters)
				})
				commits += m.Commits
			}
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
			lt.report(b)
		})
	}
}

// BenchmarkShardSweepLockingDisjoint is the locking-engine mirror of the
// mv shard sweep: every worker owns a private key range, so no lock
// request ever conflicts and throughput is limited purely by lock-manager
// serialization. shards=1 reproduces the old single-latch lock manager
// (every acquire and release funnels through one mutex); higher stripe
// counts let the disjoint-key lock traffic proceed in parallel.
func BenchmarkShardSweepLockingDisjoint(b *testing.B) {
	const workers, batch, iters = 8, 4, 100
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var commits, aborts int64
			lt := newLatencyTimer()
			for i := 0; i < b.N; i++ {
				db := isolevel.NewLockingDBShards(shards)
				isolevel.LoadAccounts(db, workers*batch, 0)
				var m isolevel.Metrics
				lt.time(func() {
					m = isolevel.BatchIncrementWorkload(db, isolevel.Serializable, workers, iters, batch, true)
				})
				commits += m.Commits
				aborts += m.Aborts
			}
			if aborts != 0 {
				b.Fatalf("disjoint lock sets aborted %d times", aborts)
			}
			b.ReportMetric(float64(commits)/b.Elapsed().Seconds(), "commits/s")
			lt.report(b)
		})
	}
}

// --- Key-range vs predicate phantom-prevention benches ---
// (`make bench-keyrange` runs the Keyrange benches and converts their
// output into BENCH_keyrange.json, the perf-trajectory artifact.)

// BenchmarkKeyrangeWritersUnderScan is the headline comparison: a
// SERIALIZABLE scanner holds its phantom protection for the whole
// benchmark while concurrent writers update non-matching rows on spread
// keys. Under the predicate table every write funnels through the
// cross-stripe gate's exclusive side for its conflict check; under
// key-range locking writes consult only their own stripe's fragments.
// The gate-acquires/op metric is the direct evidence: zero on keyrange.
func BenchmarkKeyrangeWritersUnderScan(b *testing.B) {
	const keys = 128
	for _, proto := range []string{"predicate", "keyrange"} {
		for _, shards := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/shards=%d", proto, shards), func(b *testing.B) {
				db := isolevel.NewLockingDBShards(shards)
				if proto == "keyrange" {
					db = isolevel.NewKeyrangeDBShards(shards)
				}
				for i := 0; i < keys; i++ {
					db.Load(isolevel.Scalar(isolevel.Key(fmt.Sprintf("acct:%d", i)), int64(i)))
				}
				p := isolevel.MustPredicate("val >= 100000")
				scanner, err := db.Begin(isolevel.Serializable)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := scanner.Select(p); err != nil {
					b.Fatal(err)
				}
				var ctr atomic.Int64
				lt := newLatencyTimer()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						i := ctr.Add(1)
						key := isolevel.Key(fmt.Sprintf("acct:%d", int(i)%keys))
						t0 := lt.start()
						tx, err := db.Begin(isolevel.ReadCommitted)
						if err != nil {
							b.Fatal(err)
						}
						if err := isolevel.PutVal(tx, key, i%99999); err != nil {
							b.Fatal(err)
						}
						if err := tx.Commit(); err != nil {
							b.Fatal(err)
						}
						lt.stop(t0)
					}
				})
				b.StopTimer()
				if err := scanner.Commit(); err != nil {
					b.Fatal(err)
				}
				st := db.LockStats()
				if proto == "keyrange" && st.GateAcquires != 0 {
					b.Fatalf("keyrange writers took the gate %d times", st.GateAcquires)
				}
				if proto == "predicate" && st.GateAcquires == 0 {
					b.Fatal("predicate writers never took the gate — the bench is not exercising the contended path")
				}
				b.ReportMetric(float64(st.GateAcquires)/float64(b.N), "gate-acquires/op")
				lt.report(b)
			})
		}
	}
}

// BenchmarkKeyrangeScan prices the scan itself: a key-range scan installs
// one fragment per existing key in range where a predicate lock installs
// a single gated table entry — the honest cost side of trading the global
// gate for per-stripe locality.
func BenchmarkKeyrangeScan(b *testing.B) {
	for _, proto := range []string{"predicate", "keyrange"} {
		for _, keys := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s/keys=%d", proto, keys), func(b *testing.B) {
				db := isolevel.NewLockingDBShards(16)
				if proto == "keyrange" {
					db = isolevel.NewKeyrangeDBShards(16)
				}
				for i := 0; i < keys; i++ {
					db.Load(isolevel.Scalar(isolevel.Key(fmt.Sprintf("acct:%d", i)), int64(i)))
				}
				p := isolevel.MustPredicate("val >= 100000")
				lt := newLatencyTimer()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t0 := lt.start()
					tx, err := db.Begin(isolevel.Serializable)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := tx.Select(p); err != nil {
						b.Fatal(err)
					}
					if err := tx.Commit(); err != nil {
						b.Fatal(err)
					}
					lt.stop(t0)
				}
				lt.report(b)
			})
		}
	}
}

// BenchmarkKeyrangePhantomStorm runs the lockstep phantom scenario end to
// end under both protocols — identical exact outcomes, different
// lock-manager internals.
func BenchmarkKeyrangePhantomStorm(b *testing.B) {
	const writers, rounds = 4, 5
	for _, proto := range []string{"predicate", "keyrange"} {
		b.Run(proto, func(b *testing.B) {
			lt := newLatencyTimer()
			for i := 0; i < b.N; i++ {
				db := isolevel.NewLockingDBShards(16)
				if proto == "keyrange" {
					db = isolevel.NewKeyrangeDBShards(16)
				}
				t0 := lt.start()
				res, err := workload.PhantomInsertStorm(db, isolevel.Serializable, writers, rounds)
				lt.stop(t0)
				if err != nil {
					b.Fatal(err)
				}
				if res.PhantomsSeen != 0 || res.BlockedInserts != writers*rounds {
					b.Fatalf("storm drifted: %+v", res)
				}
			}
			b.ReportMetric(float64(b.N*rounds)/b.Elapsed().Seconds(), "rounds/s")
			lt.report(b)
		})
	}
}

// BenchmarkLockingLockstep measures the deterministic lock-manager
// scenarios end to end (schedule-runner overhead included): the upgrade
// storm's exact one-survivor-per-round outcome at increasing stripe
// counts.
func BenchmarkLockingLockstep(b *testing.B) {
	const sessions, rounds = 4, 10
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("upgrade-storm/shards=%d", shards), func(b *testing.B) {
			lt := newLatencyTimer()
			for i := 0; i < b.N; i++ {
				db := isolevel.NewLockingDBShards(shards)
				t0 := lt.start()
				m, err := isolevel.UpgradeStormWorkload(db, isolevel.Serializable, sessions, rounds)
				lt.stop(t0)
				if err != nil {
					b.Fatal(err)
				}
				if m.Commits != rounds || m.Aborts != rounds*(sessions-1) {
					b.Fatalf("storm drifted: %+v", m)
				}
			}
			b.ReportMetric(float64(b.N*rounds)/b.Elapsed().Seconds(), "rounds/s")
			lt.report(b)
		})
	}
}

// BenchmarkSkewedTransfer measures the skewed multi-key transfer scenario:
// first-committer-wins aborts concentrate on the hot keys while the
// uniform tail still commits in parallel through the striped path.
func BenchmarkSkewedTransfer(b *testing.B) {
	for _, level := range []isolevel.Level{isolevel.Serializable, isolevel.SnapshotIsolation} {
		b.Run(level.String(), func(b *testing.B) {
			var commits, aborts int64
			for i := 0; i < b.N; i++ {
				db := isolevel.NewDBFor(level)
				isolevel.LoadAccounts(db, benchAccounts, 100)
				m := isolevel.SkewedTransferWorkload(db, level, benchAccounts, 8, 4, benchIters, 0.8)
				commits += m.Commits
				aborts += m.Aborts
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
			b.ReportMetric(100*float64(aborts)/float64(max64(1, commits+aborts)), "abort-%")
		})
	}
}

// BenchmarkHotspotLockstep measures the deterministic contention driver:
// per round every session reads before any session commits, so the SI
// abort rate is exactly (sessions-1)/sessions by construction and the
// metric of interest is rounds per second (rendezvous overhead included).
func BenchmarkHotspotLockstep(b *testing.B) {
	for _, sessions := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			const rounds = 25
			var commits, aborts int64
			for i := 0; i < b.N; i++ {
				db := isolevel.NewSnapshotDB()
				m := isolevel.HotspotLockstep(db, isolevel.SnapshotIsolation, sessions, rounds)
				commits += m.Commits
				aborts += m.Aborts
			}
			if commits != int64(b.N*rounds) {
				b.Fatalf("lockstep commits drifted: %d, want %d", commits, b.N*rounds)
			}
			b.ReportMetric(float64(b.N*rounds)/b.Elapsed().Seconds(), "rounds/s")
			b.ReportMetric(100*float64(aborts)/float64(max64(1, commits+aborts)), "abort-%")
		})
	}
}

// BenchmarkFirstCommitterVsFirstUpdater is the ablation of the paper's
// commit-time validation against the eager write-time variant used by
// several modern systems: same anomaly guarantees, different abort timing.
func BenchmarkFirstCommitterVsFirstUpdater(b *testing.B) {
	run := func(b *testing.B, db engine.DB) {
		var commits, aborts int64
		for i := 0; i < b.N; i++ {
			m := workload.HotspotCounter(db, isolevel.SnapshotIsolation, 4, benchIters)
			commits += m.Commits
			aborts += m.Aborts
		}
		b.ReportMetric(100*float64(aborts)/float64(max64(1, commits+aborts)), "abort-%")
	}
	b.Run("first-committer-wins", func(b *testing.B) {
		run(b, isolevel.NewSnapshotDB())
	})
	b.Run("first-updater-wins", func(b *testing.B) {
		run(b, isolevel.NewSnapshotDBFirstUpdaterWins())
	})
}

// BenchmarkEngineMicro measures single-threaded engine primitives.
func BenchmarkEngineMicro(b *testing.B) {
	b.Run("locking/get-put-commit", func(b *testing.B) {
		db := isolevel.NewLockingDB()
		db.Load(isolevel.Scalar("x", 0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin(isolevel.Serializable)
			v, _ := isolevel.GetVal(tx, "x")
			_ = isolevel.PutVal(tx, "x", v+1)
			_ = tx.Commit()
		}
	})
	b.Run("snapshot/get-put-commit", func(b *testing.B) {
		db := isolevel.NewSnapshotDB()
		db.Load(isolevel.Scalar("x", 0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, _ := db.Begin(isolevel.SnapshotIsolation)
			v, _ := isolevel.GetVal(tx, "x")
			_ = isolevel.PutVal(tx, "x", v+1)
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("history/parse-H1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := isolevel.ParseHistory("r1[x=50] w1[x=10] r2[x=10] r2[y=50] c2 r1[y=50] w1[y=90] c1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("phenomena/profile-H5", func(b *testing.B) {
		h := isolevel.H5()
		for i := 0; i < b.N; i++ {
			if p := isolevel.PhenomenaProfile(h); !p["A5B"] {
				b.Fatal("profile lost A5B")
			}
		}
	})
	b.Run("deps/serializability-H1", func(b *testing.B) {
		h := isolevel.H1()
		for i := 0; i < b.N; i++ {
			if isolevel.ConflictSerializable(h) {
				b.Fatal("H1 became serializable")
			}
		}
	})
}

// BenchmarkSelectRange reads one 32-row key range out of tables of 2,048
// and 32,768 rows, straight at the two stores. Both answer from their
// ordered per-stripe key index, so the time per read must stay flat as
// the table grows 16x; a return to visiting every row shows as a 16x
// step between the two sizes.
func BenchmarkSelectRange(b *testing.B) {
	const perGroup = 32
	table := func(rows int) (tuples []data.Tuple, mid predicate.KeyRange) {
		groups := rows / perGroup
		for g := 0; g < groups; g++ {
			for slot := 0; slot < 2*perGroup; slot += 2 { // odd slots stay free, as in scanmove
				tuples = append(tuples, data.Tuple{Key: data.Key(fmt.Sprintf("grp:%04d:%03d", g, slot)), Row: data.Scalar(100)})
			}
		}
		return tuples, predicate.KeyRange{
			Lo: data.Key(fmt.Sprintf("grp:%04d:000", groups/2)),
			Hi: data.Key(fmt.Sprintf("grp:%04d:000", groups/2+1)),
		}
	}
	for _, rows := range []int{2048, 32768} {
		tuples, mid := table(rows)
		run := func(name string, sel func() []data.Tuple) {
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got := len(sel()); got != perGroup {
						b.Fatalf("range read returned %d rows, want %d", got, perGroup)
					}
				}
			})
		}
		svStore := sv.NewStore()
		svStore.Load(tuples...)
		run("sv", func() []data.Tuple { return svStore.Select(mid) })
		mvStore := mv.NewStore()
		mvStore.Load(1, tuples...)
		run("mv", func() []data.Tuple { return mvStore.SelectAt(mid, 1) })
	}
}

// BenchmarkCellSpot regenerates the two most expensive single cells.
func BenchmarkCellSpot(b *testing.B) {
	for _, c := range []struct {
		level isolevel.Level
		col   string
	}{
		{isolevel.CursorStability, "A5B"},
		{isolevel.SnapshotIsolation, "P3"},
	} {
		b.Run(fmt.Sprintf("%s/%s", c.level, c.col), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := matrix.RunCell(c.level, c.col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Differential fuzzer: checker throughput and campaign rate ---

// checkerHistory generates a deterministic history of roughly the given
// op count for the checker benches.
func checkerHistory(txs, opsPerTx int) isolevel.History {
	p := exerciser.DefaultParams()
	p.Txs = txs
	p.Items = 4
	p.OpsPerTx = opsPerTx
	return exerciser.Generate(42, p).History()
}

// BenchmarkCheckerBatch runs the batch phenomenon matchers (full-history
// rescans per identifier) over a generated history and reports
// histories/sec — the baseline the streaming checker is measured against.
func BenchmarkCheckerBatch(b *testing.B) {
	h := checkerHistory(8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(isolevel.PhenomenaProfile(h)) == 0 {
			b.Fatal("generated history exhibits nothing")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
	b.ReportMetric(float64(len(h)), "ops/history")
}

// BenchmarkCheckerStream runs the incremental checker over the same
// history: per-op work bounded by live transactions, not history length.
func BenchmarkCheckerStream(b *testing.B) {
	h := checkerHistory(8, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(isolevel.StreamingProfile(h)) == 0 {
			b.Fatal("generated history exhibits nothing")
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
	b.ReportMetric(float64(len(h)), "ops/history")
}

// BenchmarkCheckerStreamLong checks a campaign-length history (thousands
// of ops) that the batch matchers' quadratic-and-worse scans cannot
// sustain at bench speed.
func BenchmarkCheckerStreamLong(b *testing.B) {
	h := checkerHistory(64, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		isolevel.StreamingProfile(h)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "histories/sec")
	b.ReportMetric(float64(len(h)), "ops/history")
}

// BenchmarkFuzzSchedule measures the full differential pipeline for one
// schedule: generate, replay on every engine family at every level,
// normalize, stream-check, oracle-compare.
func BenchmarkFuzzSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := exerciser.Run(exerciser.Options{Seed: 1, Start: i, N: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violations() != 0 {
			b.Fatalf("oracle violation during bench:\n%s", rep.Detail())
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "schedules/sec")
}
