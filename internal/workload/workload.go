// Package workload provides the concurrent workload generators behind the
// benchmark harness — the operational counterpart of §4.2's qualitative
// performance claims:
//
//   - SI's "optimistic approach has a clear concurrency advantage for
//     read-only transactions" (readers never block and never block
//     writers), measured by ReadersVsWriters;
//   - first-committer-wins converts write-write contention into aborts
//     where locking converts it into blocking, measured by HotspotCounter
//     abort/block rates across a contention sweep;
//   - "it probably isn't good for long-running update transactions
//     competing with high-contention short transactions, since the
//     long-running transactions are unlikely to be the first writer of
//     everything they write", measured by LongRunningUpdater.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/obs"
)

// Metrics aggregates the outcome of a workload run.
type Metrics struct {
	Commits   int64
	Aborts    int64 // prevention aborts (deadlock victims, FCW conflicts)
	Errors    int64 // unexpected errors
	Reads     int64
	Writes    int64
	WallClock time.Duration
}

// Throughput returns committed transactions per second.
func (m Metrics) Throughput() float64 {
	if m.WallClock <= 0 {
		return 0
	}
	return float64(m.Commits) / m.WallClock.Seconds()
}

// AbortRate returns aborts / (commits + aborts).
func (m Metrics) AbortRate() float64 {
	total := m.Commits + m.Aborts
	if total == 0 {
		return 0
	}
	return float64(m.Aborts) / float64(total)
}

// String renders the metrics as one line. The wall clock prints in one
// fixed unit: a Duration's own String switches between µs, ms and s with
// the value, and a run near a boundary would change the line's shape.
func (m Metrics) String() string {
	return fmt.Sprintf("commits=%d aborts=%d (%.1f%%) reads=%d writes=%d in %.3fms",
		m.Commits, m.Aborts, 100*m.AbortRate(), m.Reads, m.Writes, float64(m.WallClock)/float64(time.Millisecond))
}

type counters struct {
	commits, aborts, errs, reads, writes atomic.Int64
}

func (c *counters) metrics(wall time.Duration) Metrics {
	return Metrics{
		Commits:   c.commits.Load(),
		Aborts:    c.aborts.Load(),
		Errors:    c.errs.Load(),
		Reads:     c.reads.Load(),
		Writes:    c.writes.Load(),
		WallClock: wall,
	}
}

// classify records the fate of a transaction attempt.
func (c *counters) classify(err error) {
	switch {
	case err == nil:
		c.commits.Add(1)
	case engine.IsPrevention(err):
		c.aborts.Add(1)
	default:
		c.errs.Add(1)
	}
}

// AccountKey names the i-th account row.
func AccountKey(i int) data.Key { return data.Key(fmt.Sprintf("acct:%d", i)) }

// LoadAccounts installs n accounts with the given starting balance.
func LoadAccounts(db engine.DB, n int, balance int64) {
	tuples := make([]data.Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = data.Tuple{Key: AccountKey(i), Row: data.Scalar(balance)}
	}
	db.Load(tuples...)
}

// runTxn executes one transaction attempt with automatic rollback on error.
// Engines that expose an observability sink (Obs() *obs.Sink) get the whole
// attempt's latency recorded into the sink's txn_latency histogram; the
// interface assertion keeps workload decoupled from the concrete engines.
func runTxn(db engine.DB, level engine.Level, body func(tx engine.Tx) error) error {
	var sink *obs.Sink
	if o, ok := db.(interface{ Obs() *obs.Sink }); ok {
		sink = o.Obs()
	}
	start := sink.Now()
	err := runTxnBody(db, level, body)
	sink.RecordTxn(start)
	return err
}

func runTxnBody(db engine.DB, level engine.Level, body func(tx engine.Tx) error) error {
	tx, err := db.Begin(level)
	if err != nil {
		return err
	}
	if err := body(tx); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// Transfer runs the classic bank transfer workload: each of the workers
// goroutines performs iters transactions moving 1 unit between two randomly
// chosen accounts. The total balance is an invariant every engine must
// preserve through commits (lost updates would break it).
func Transfer(db engine.DB, level engine.Level, accounts, workers, iters int) Metrics {
	var c counters
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				from := AccountKey(rng.Intn(accounts))
				to := AccountKey(rng.Intn(accounts))
				if from == to {
					continue
				}
				err := runTxn(db, level, func(tx engine.Tx) error {
					fv, err := engine.GetVal(tx, from)
					if err != nil {
						return err
					}
					tv, err := engine.GetVal(tx, to)
					if err != nil {
						return err
					}
					c.reads.Add(2)
					if err := engine.PutVal(tx, from, fv-1); err != nil {
						return err
					}
					if err := engine.PutVal(tx, to, tv+1); err != nil {
						return err
					}
					c.writes.Add(2)
					return nil
				})
				c.classify(err)
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	return c.metrics(time.Since(start))
}

// TotalBalance sums all account balances in the committed state.
func TotalBalance(db engine.DB, accounts int) int64 {
	var total int64
	for i := 0; i < accounts; i++ {
		if row := db.ReadCommittedRow(AccountKey(i)); row != nil {
			total += row.Val()
		}
	}
	return total
}

// ReadersVsWriters runs readerWorkers read-only scans (each reading every
// account once) against writerWorkers update transactions on random
// accounts, and reports separate metrics for each population. Under SI the
// readers neither block nor abort regardless of writer count; under the
// long-read-lock locking levels they serialize against the writers.
func ReadersVsWriters(db engine.DB, level engine.Level, accounts, readerWorkers, writerWorkers, iters int) (readers, writers Metrics) {
	var rc, wc counters
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < readerWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := runTxn(db, level, func(tx engine.Tx) error {
					for a := 0; a < accounts; a++ {
						if _, err := engine.GetVal(tx, AccountKey(a)); err != nil && !errors.Is(err, engine.ErrNotFound) {
							return err
						}
						rc.reads.Add(1)
					}
					return nil
				})
				rc.classify(err)
			}
		}(int64(w) + 1)
	}
	for w := 0; w < writerWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed * 97))
			for i := 0; i < iters; i++ {
				key := AccountKey(rng.Intn(accounts))
				err := runTxn(db, level, func(tx engine.Tx) error {
					v, err := engine.GetVal(tx, key)
					if err != nil {
						return err
					}
					wc.reads.Add(1)
					wc.writes.Add(1)
					return engine.PutVal(tx, key, v+1)
				})
				wc.classify(err)
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	wall := time.Since(start)
	return rc.metrics(wall), wc.metrics(wall)
}

// HotspotCounter increments a single hot row from many workers — maximal
// write-write contention. Locking levels serialize on the write lock;
// SI turns the conflicts into first-committer-wins aborts.
func HotspotCounter(db engine.DB, level engine.Level, workers, iters int) Metrics {
	db.Load(data.Tuple{Key: "hot", Row: data.Scalar(0)})
	var c counters
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := runTxn(db, level, func(tx engine.Tx) error {
					v, err := engine.GetVal(tx, "hot")
					if err != nil {
						return err
					}
					c.reads.Add(1)
					c.writes.Add(1)
					return engine.PutVal(tx, "hot", v+1)
				})
				c.classify(err)
			}
		}()
	}
	wg.Wait()
	return c.metrics(time.Since(start))
}

// LongRunningUpdater runs one long update transaction that touches span
// accounts (reading then writing each, with the writes at the end), while
// short hot writers hammer the same accounts. It reports whether the long
// transaction managed to commit and the short writers' metrics. Under SI
// the long transaction is "unlikely to be the first writer of everything it
// writes" and aborts; under locking it blocks the short writers instead.
func LongRunningUpdater(db engine.DB, level engine.Level, span, shortWorkers, shortIters int) (longCommitted bool, longErr error, short Metrics) {
	var c counters
	start := time.Now()
	var wg sync.WaitGroup
	startShort := make(chan struct{})
	var startOnce sync.Once
	release := func() { startOnce.Do(func() { close(startShort) }) }
	defer wg.Wait()
	defer release() // even if the long transaction fails before releasing
	for w := 0; w < shortWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			<-startShort
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < shortIters; i++ {
				key := AccountKey(rng.Intn(span))
				err := runTxn(db, level, func(tx engine.Tx) error {
					v, err := engine.GetVal(tx, key)
					if err != nil {
						return err
					}
					return engine.PutVal(tx, key, v+1)
				})
				c.classify(err)
			}
		}(int64(w) + 1)
	}

	longErr = runTxn(db, level, func(tx engine.Tx) error {
		// Read everything first.
		vals := make([]int64, span)
		for a := 0; a < span; a++ {
			v, err := engine.GetVal(tx, AccountKey(a))
			if err != nil {
				return err
			}
			vals[a] = v
		}
		// Let the short transactions race while the long one is mid-flight.
		release()
		time.Sleep(10 * time.Millisecond)
		for a := 0; a < span; a++ {
			if err := engine.PutVal(tx, AccountKey(a), vals[a]+100); err != nil {
				return err
			}
		}
		return nil
	})
	longCommitted = longErr == nil
	wg.Wait()
	return longCommitted, longErr, c.metrics(time.Since(start))
}
