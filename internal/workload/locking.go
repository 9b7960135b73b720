// Lockstep locking-engine scenarios.
//
// The free-running generators exercise the striped MVCC commit path; the
// scenarios below exercise the striped lock manager, and they must do it
// deterministically on GOMAXPROCS=1 (the CI determinism gate). They are
// therefore driven by the schedule runner, whose lock-wait observer makes
// "this operation blocked" an observed fact rather than a timing guess:
//
//   - ReadLockFanIn: many readers share an S lock on one key per round
//     while a writer's X request fans in behind them — the contended
//     read-lock pattern. At the long-read-lock levels the writer blocks
//     exactly once per round; at the short-read-lock and multiversion
//     levels it never does.
//   - UpgradeDeadlockStorm: every session reads then writes the same key,
//     the classic S→X upgrade storm. Under the locking levels the
//     deterministic requester-is-victim rule leaves exactly one survivor
//     per round; under Snapshot Isolation first-committer-wins produces
//     the same 1-commit-per-round shape through aborts at commit instead.
//   - PredicateVsItemMix: a scanner holds a predicate lock while writers
//     insert matching and non-matching rows across stripes — the
//     cross-stripe predicate-vs-item conflict (phantom prevention) that
//     the lock manager's shared-exclusive gate exists for.
//
// Keys are spread over rounds (one fresh key per round) so every stripe of
// a striped lock manager sees traffic; the outcomes must be identical at
// every stripe count.
package workload

import (
	"fmt"
	"strings"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
	"isolevel/internal/schedule"
)

func fanKey(r int) data.Key { return data.Key(fmt.Sprintf("fan:%d", r)) }

func stormKey(r int) data.Key { return data.Key(fmt.Sprintf("storm:%d", r)) }

// FanInResult reports a ReadLockFanIn run.
type FanInResult struct {
	Readers Metrics
	Writer  Metrics
	// WriterBlocked counts rounds in which the writer's update had to
	// wait behind the readers' Share locks. Long-read-lock levels
	// (REPEATABLE READ, SERIALIZABLE) block every round; short-read-lock
	// and multiversion levels never block.
	WriterBlocked int
}

// ReadLockFanIn runs `rounds` lockstep rounds; in each, `readers`
// transactions read one fresh key (sharing its S lock) and then a writer
// updates the same key, fanning in behind every reader. All transactions
// commit every round — the scenario measures blocking, not aborts.
func ReadLockFanIn(db engine.DB, level engine.Level, readers, rounds int) (FanInResult, error) {
	if readers < 1 {
		readers = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	tuples := make([]data.Tuple, rounds)
	for r := range tuples {
		tuples[r] = data.Tuple{Key: fanKey(r), Row: data.Scalar(0)}
	}
	db.Load(tuples...)

	var steps []schedule.Step
	writerTxns := map[int]bool{}
	txn := 0
	for r := 0; r < rounds; r++ {
		key := fanKey(r)
		readerTxns := make([]int, readers)
		for i := range readerTxns {
			txn++
			t := txn
			readerTxns[i] = t
			steps = append(steps, schedule.OpStep(t, fmt.Sprintf("r%d[%s]", t, key), func(c *schedule.Ctx) (any, error) {
				return engine.GetVal(c.Tx, key)
			}))
		}
		txn++
		w := txn
		writerTxns[w] = true
		val := int64(r + 1)
		steps = append(steps, schedule.OpStep(w, fmt.Sprintf("w%d[%s]", w, key), func(c *schedule.Ctx) (any, error) {
			return nil, engine.PutVal(c.Tx, key, val)
		}))
		for _, t := range readerTxns {
			steps = append(steps, schedule.CommitStep(t))
		}
		steps = append(steps, schedule.CommitStep(w))
	}

	start := time.Now()
	res, err := schedule.Run(db, schedule.Options{Level: level}, steps)
	if err != nil {
		return FanInResult{}, err
	}
	wall := time.Since(start)
	var out FanInResult
	out.Writer, out.Readers = splitMetrics(res, writerTxns, wall)
	for _, st := range res.Steps {
		if writerTxns[st.TxN] && strings.HasPrefix(st.Name, "w") && st.Blocked {
			out.WriterBlocked++
		}
	}
	return out, nil
}

// UpgradeDeadlockStorm runs `rounds` lockstep rounds in which every one of
// `sessions` transactions reads one fresh key and then writes it — the
// classic S→X upgrade storm. At the long-read-lock locking levels the
// deterministic requester-is-victim rule kills every upgrader whose wait
// would close the cycle, leaving exactly one commit and sessions-1
// deadlock aborts per round; Snapshot Isolation reaches the same count
// through first-committer-wins aborts at commit time.
func UpgradeDeadlockStorm(db engine.DB, level engine.Level, sessions, rounds int) (Metrics, error) {
	if sessions < 2 {
		sessions = 2
	}
	if rounds < 1 {
		rounds = 1
	}
	tuples := make([]data.Tuple, rounds)
	for r := range tuples {
		tuples[r] = data.Tuple{Key: stormKey(r), Row: data.Scalar(0)}
	}
	db.Load(tuples...)

	var steps []schedule.Step
	txn := 0
	var c counters
	for r := 0; r < rounds; r++ {
		key := stormKey(r)
		roundTxns := make([]int, sessions)
		for i := range roundTxns {
			txn++
			t := txn
			roundTxns[i] = t
			steps = append(steps, schedule.OpStep(t, fmt.Sprintf("r%d[%s]", t, key), func(ctx *schedule.Ctx) (any, error) {
				v, err := engine.GetVal(ctx.Tx, key)
				if err == nil {
					c.reads.Add(1)
					ctx.Vars["v"] = v
				}
				return v, err
			}))
		}
		for _, t := range roundTxns {
			steps = append(steps, schedule.OpStep(t, fmt.Sprintf("w%d[%s]", t, key), func(ctx *schedule.Ctx) (any, error) {
				err := engine.PutVal(ctx.Tx, key, ctx.Int("v")+1)
				if err == nil {
					c.writes.Add(1)
				}
				return nil, err
			}))
		}
		for _, t := range roundTxns {
			steps = append(steps, schedule.CommitStep(t))
		}
	}

	start := time.Now()
	res, err := schedule.Run(db, schedule.Options{Level: level}, steps)
	if err != nil {
		return Metrics{}, err
	}
	m := c.metrics(time.Since(start))
	m.Commits = int64(len(res.Committed))
	m.Aborts = int64(len(res.AutoAborted))
	return m, nil
}

// PredItemResult reports a PredicateVsItemMix run.
type PredItemResult struct {
	Scanner Metrics
	Writers Metrics
	// MatchingInserts counts inserts whose row satisfies the scanner's
	// predicate; BlockedInserts counts how many of them had to wait on
	// the predicate lock. SERIALIZABLE blocks all of them (phantom
	// prevention across every stripe); every weaker level blocks none.
	MatchingInserts int
	BlockedInserts  int
}

// PredicateVsItemMix runs `rounds` lockstep rounds; in each, one scanner
// SELECTs `active == 1` and then `writers` transactions insert fresh rows,
// alternating matching (active=1) and non-matching (active=0) ones whose
// keys spread across lock-table stripes. Matching inserts are phantoms for
// the scanner: under SERIALIZABLE its long predicate lock blocks each of
// them in whatever stripe it lands, while non-matching inserts sail
// through.
func PredicateVsItemMix(db engine.DB, level engine.Level, writers, rounds int) (PredItemResult, error) {
	if writers < 1 {
		writers = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	p := predicate.MustParse("active == 1")

	// One schedule.Run per round: Run drains every pending operation
	// before returning, so a round's inserts can never pipeline into the
	// next round's scan — that independence is what keeps the blocked
	// counts exact on GOMAXPROCS=1.
	var out PredItemResult
	start := time.Now()
	for r := 0; r < rounds; r++ {
		var steps []schedule.Step
		matching := map[string]bool{} // names of matching insert steps
		const s = 1                   // scanner transaction number
		steps = append(steps, schedule.OpStep(s, "sel", func(ctx *schedule.Ctx) (any, error) {
			rows, err := ctx.Tx.Select(p)
			return len(rows), err
		}))
		for w := 0; w < writers; w++ {
			t := s + 1 + w
			key := data.Key(fmt.Sprintf("emp:%d:%d", r, w))
			active := int64(0)
			name := fmt.Sprintf("ins%d[%s]", t, key)
			if w%2 == 0 {
				active = 1
				matching[name] = true
			}
			steps = append(steps, schedule.OpStep(t, name, func(ctx *schedule.Ctx) (any, error) {
				return nil, ctx.Tx.Put(key, data.NewRow(map[string]int64{"active": active}))
			}))
		}
		steps = append(steps, schedule.CommitStep(s))
		for w := 0; w < writers; w++ {
			steps = append(steps, schedule.CommitStep(s+1+w))
		}
		res, err := schedule.Run(db, schedule.Options{Level: level}, steps)
		if err != nil {
			return PredItemResult{}, err
		}
		scan, write := splitMetrics(res, map[int]bool{s: true}, 0)
		out.Scanner.Commits += scan.Commits
		out.Scanner.Aborts += scan.Aborts
		out.Writers.Commits += write.Commits
		out.Writers.Aborts += write.Aborts
		out.MatchingInserts += len(matching)
		for _, st := range res.Steps {
			if matching[st.Name] && st.Blocked {
				out.BlockedInserts++
			}
		}
	}
	wall := time.Since(start)
	out.Scanner.WallClock, out.Writers.WallClock = wall, wall
	return out, nil
}

// PhantomStormResult reports a PhantomInsertStorm run.
type PhantomStormResult struct {
	Scanner Metrics
	Writers Metrics
	// PhantomsSeen counts rows the scanner's second SELECT saw beyond its
	// first — phantoms that got in between the two scans. SERIALIZABLE
	// admits none (under either phantom protocol: the gated predicate
	// table or striped key-range locks); REPEATABLE READ and below admit
	// every matching insert, because Table 2 gives them only short
	// predicate-read locks.
	PhantomsSeen int
	// BlockedInserts counts inserts that had to wait on the scanner's
	// phantom protection.
	BlockedInserts int
}

// PhantomInsertStorm runs `rounds` lockstep rounds; in each, one scanner
// SELECTs `val >= 100`, then `writers` transactions each insert a fresh
// matching row, then the scanner re-SELECTs and everyone commits. The
// phantom counts are exact at any GOMAXPROCS, shard count, and phantom
// protocol — the keyrange-vs-predicate differential for the paper's P3.
func PhantomInsertStorm(db engine.DB, level engine.Level, writers, rounds int) (PhantomStormResult, error) {
	if writers < 1 {
		writers = 1
	}
	if rounds < 1 {
		rounds = 1
	}
	p := predicate.MustParse(fmt.Sprintf("%s >= 100", data.ValField))
	db.Load(data.Tuple{Key: "storm:seed", Row: data.Scalar(100)})

	var out PhantomStormResult
	start := time.Now()
	for r := 0; r < rounds; r++ {
		var steps []schedule.Step
		const s = 1
		var firstCount, secondCount int
		steps = append(steps, schedule.OpStep(s, "scan1", func(ctx *schedule.Ctx) (any, error) {
			rows, err := ctx.Tx.Select(p)
			firstCount = len(rows)
			return firstCount, err
		}))
		insertNames := map[string]bool{}
		for w := 0; w < writers; w++ {
			t := s + 1 + w
			key := data.Key(fmt.Sprintf("storm:%d:%d", r, w))
			name := fmt.Sprintf("ins%d[%s]", t, key)
			insertNames[name] = true
			steps = append(steps, schedule.OpStep(t, name, func(ctx *schedule.Ctx) (any, error) {
				return nil, ctx.Tx.Put(key, data.Scalar(100+int64(w)))
			}))
		}
		steps = append(steps, schedule.OpStep(s, "scan2", func(ctx *schedule.Ctx) (any, error) {
			rows, err := ctx.Tx.Select(p)
			secondCount = len(rows)
			return secondCount, err
		}))
		steps = append(steps, schedule.CommitStep(s))
		for w := 0; w < writers; w++ {
			steps = append(steps, schedule.CommitStep(s+1+w))
		}
		res, err := schedule.Run(db, schedule.Options{Level: level}, steps)
		if err != nil {
			return PhantomStormResult{}, err
		}
		scan, write := splitMetrics(res, map[int]bool{s: true}, 0)
		out.Scanner.Commits += scan.Commits
		out.Scanner.Aborts += scan.Aborts
		out.Writers.Commits += write.Commits
		out.Writers.Aborts += write.Aborts
		out.PhantomsSeen += secondCount - firstCount
		for _, st := range res.Steps {
			if insertNames[st.Name] && st.Blocked {
				out.BlockedInserts++
			}
		}
	}
	wall := time.Since(start)
	out.Scanner.WallClock, out.Writers.WallClock = wall, wall
	return out, nil
}

// RangeFanInResult reports a RangeScanVsInsertFanIn run.
type RangeFanInResult struct {
	Scanner Metrics
	Writers Metrics
	// InsideBlocked counts inserts into the scanned prefix range that had
	// to wait; OutsideTotal/OutsideBlocked the inserts landing outside it.
	// At SERIALIZABLE every inside insert blocks and — this is the
	// key-range locality claim — no outside insert ever does: under
	// keyrange protection the outside writers never touch a cross-stripe
	// gate, under the predicate table they conflict-check against the
	// scanner's predicate and pass.
	InsideTotal    int
	InsideBlocked  int
	OutsideTotal   int
	OutsideBlocked int
}

// RangeScanVsInsertFanIn runs `rounds` lockstep rounds; in each, one
// scanner SELECTs the key-prefix range `key ~ "acct:"` and holds it per
// the level's protocol while `writers` transactions fan in with inserts —
// even-numbered writers inside the prefix range, odd-numbered ones
// outside it. The blocked counts are exact at any GOMAXPROCS and shard
// count.
func RangeScanVsInsertFanIn(db engine.DB, level engine.Level, writers, rounds int) (RangeFanInResult, error) {
	if writers < 2 {
		writers = 2
	}
	if rounds < 1 {
		rounds = 1
	}
	p := predicate.MustParse(`key ~ "acct:"`)
	db.Load(data.Tuple{Key: "acct:seed", Row: data.Scalar(1)})

	var out RangeFanInResult
	start := time.Now()
	for r := 0; r < rounds; r++ {
		var steps []schedule.Step
		const s = 1
		steps = append(steps, schedule.OpStep(s, "scan", func(ctx *schedule.Ctx) (any, error) {
			rows, err := ctx.Tx.Select(p)
			return len(rows), err
		}))
		inside := map[string]bool{}
		outside := map[string]bool{}
		for w := 0; w < writers; w++ {
			t := s + 1 + w
			var key data.Key
			name := ""
			if w%2 == 0 {
				key = data.Key(fmt.Sprintf("acct:%d:%d", r, w))
				name = fmt.Sprintf("in%d[%s]", t, key)
				inside[name] = true
			} else {
				key = data.Key(fmt.Sprintf("other:%d:%d", r, w))
				name = fmt.Sprintf("out%d[%s]", t, key)
				outside[name] = true
			}
			steps = append(steps, schedule.OpStep(t, name, func(ctx *schedule.Ctx) (any, error) {
				return nil, ctx.Tx.Put(key, data.Scalar(int64(w)))
			}))
		}
		steps = append(steps, schedule.CommitStep(s))
		for w := 0; w < writers; w++ {
			steps = append(steps, schedule.CommitStep(s+1+w))
		}
		res, err := schedule.Run(db, schedule.Options{Level: level}, steps)
		if err != nil {
			return RangeFanInResult{}, err
		}
		scan, write := splitMetrics(res, map[int]bool{s: true}, 0)
		out.Scanner.Commits += scan.Commits
		out.Scanner.Aborts += scan.Aborts
		out.Writers.Commits += write.Commits
		out.Writers.Aborts += write.Aborts
		out.InsideTotal += len(inside)
		out.OutsideTotal += len(outside)
		for _, st := range res.Steps {
			switch {
			case inside[st.Name] && st.Blocked:
				out.InsideBlocked++
			case outside[st.Name] && st.Blocked:
				out.OutsideBlocked++
			}
		}
	}
	wall := time.Since(start)
	out.Scanner.WallClock, out.Writers.WallClock = wall, wall
	return out, nil
}

// splitMetrics divides a schedule result's commit/abort counts between the
// transactions in `in` and the rest.
func splitMetrics(res *schedule.Result, in map[int]bool, wall time.Duration) (inM, outM Metrics) {
	inM.WallClock, outM.WallClock = wall, wall
	for t := range res.Committed {
		if in[t] {
			inM.Commits++
		} else {
			outM.Commits++
		}
	}
	for t := range res.AutoAborted {
		if in[t] {
			inM.Aborts++
		} else {
			outM.Aborts++
		}
	}
	return inM, outM
}
