// Deterministic interleaving driver.
//
// The free-running generators in this package (Transfer, HotspotCounter,
// ...) rely on the Go scheduler to overlap transactions. On a single-core
// host that reliance fails: a whole read-modify-write transaction fits in
// one scheduler quantum, transactions execute back to back, and the
// contention phenomena the paper predicts — first-committer-wins aborts
// above all — simply never occur (HISTEX makes the same observation:
// isolation tests must force interleavings, not hope for them).
//
// The driver below forces the overlap. Sessions run one goroutine each
// and rendezvous at a schedule.Barrier between the read phase and the
// write/commit phase of every round, so every session's reads happen
// before any session's commit — guaranteed write-write overlap on every
// round, independent of GOMAXPROCS. Outcomes become deterministic for the
// multiversion engines: under Snapshot Isolation exactly one session per
// round wins first-committer-wins and the rest abort.
package workload

import (
	"sync"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/schedule"
)

// RunInterleaved runs sessions concurrent session goroutines that share a
// step barrier. Every session must call bar.Await the same number of
// times (or bar.Leave when bailing out early); the driver returns when
// all sessions finish.
func RunInterleaved(sessions int, fn func(sess int, bar *schedule.Barrier)) {
	bar := schedule.NewBarrier(sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s, bar)
		}(s)
	}
	wg.Wait()
}

// HotspotCounterLockstep is the deterministic-interleaving variant of
// HotspotCounter: one session per entry of levels, session s running
// every round at levels[s], increments one hot row in lockstep rounds. In
// each round every session reads the counter, the sessions rendezvous,
// and only then do they all write and commit — so the write sets of a
// round always overlap in time, whatever the levels (uniform, or mixed
// SI/RC traffic on the multiversion engine, or mixed locking degrees).
//
// Under uniform Snapshot Isolation the outcome is exact on every run,
// even with GOMAXPROCS=1: per round exactly one session commits and
// sessions-1 lose first-committer-wins, so Commits == rounds, Aborts ==
// rounds*(sessions-1), and the final counter equals Commits. The locking
// engines resolve each round's read-to-write upgrade race via deadlock
// detection instead (a mix of commits and deadlock aborts).
func HotspotCounterLockstep(db engine.DB, levels []engine.Level, rounds int) Metrics {
	db.Load(data.Tuple{Key: "hot", Row: data.Scalar(0)})
	var c counters
	start := time.Now()
	RunInterleaved(len(levels), func(sess int, bar *schedule.Barrier) {
		level := levels[sess]
		for r := 0; r < rounds; r++ {
			var v int64
			tx, err := db.Begin(level)
			if err == nil {
				v, err = engine.GetVal(tx, "hot")
				c.reads.Add(1)
			}
			bar.Await() // every session has read; nobody has written
			if err == nil {
				if err = engine.PutVal(tx, "hot", v+1); err == nil {
					c.writes.Add(1)
					err = tx.Commit()
				} else {
					_ = tx.Abort()
				}
			} else if tx != nil {
				_ = tx.Abort()
			}
			c.classify(err)
			bar.Await() // round boundary: commits settled before the next reads
		}
		bar.Leave()
	})
	return c.metrics(time.Since(start))
}
