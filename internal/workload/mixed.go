// Mixed isolation-level scenarios: transactions at different Table 2
// degrees interleaving in one scheduler, the per-transaction framing the
// paper's histories assume. MixedDirtyReadFanOut drives the locking engine
// through the schedule runner with a per-transaction level assignment
// (schedule.Options.PerTx): a Degree 1 (READ UNCOMMITTED) hot writer
// against CURSOR STABILITY, REPEATABLE READ and SERIALIZABLE readers plus
// one unlocked READ UNCOMMITTED witness. The outcome is exact at any
// GOMAXPROCS and shard count — the CI determinism gate for mixed locking,
// like the stripe scenarios in locking.go. Mixed SI/RC traffic with
// guaranteed overlap is HotspotCounterLockstep with per-session levels.
package workload

import (
	"fmt"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/schedule"
)

func mixKey(r int) data.Key { return data.Key(fmt.Sprintf("mix:%d", r)) }

// MixedFanOutResult reports a MixedDirtyReadFanOut run.
type MixedFanOutResult struct {
	Rounds int
	// DirtyReads counts rounds in which the READ UNCOMMITTED witness
	// observed the writer's uncommitted value (expected: every round).
	DirtyReads int
	// BlockedReads counts reader steps that had to wait on the writer's
	// long write lock (expected: the CS, RR and SER readers, every round).
	BlockedReads int
	// RestoredReads counts blocked readers that then observed the rolled-
	// back (restored) value once the writer aborted (expected: all of
	// them — none of the locked levels ever sees dirty data from a
	// degree >= 1 writer).
	RestoredReads int
}

// MixedDirtyReadFanOut runs `rounds` schedule-runner rounds on a locking
// engine. In each round, on a fresh key loaded with 0:
//
//	w[k=100+r]   READ UNCOMMITTED writer takes its long write lock
//	r[k]         READ UNCOMMITTED witness reads through it (dirty: 100+r)
//	r[k] x3      CS / RR / SER readers block on the write lock
//	a(writer)    rollback restores 0 and releases the lock
//	             the blocked readers resume and read 0
//	c(readers)
//
// Every count in the result is exact: the runner's lock-wait observer
// makes "blocked" an observed fact, and the per-transaction levels ride
// schedule.Options.PerTx. Fresh keys per round spread the traffic over
// every lock-table stripe, so the outcome must be identical at any shard
// count.
func MixedDirtyReadFanOut(db engine.DB, rounds int) (MixedFanOutResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	tuples := make([]data.Tuple, rounds)
	for r := range tuples {
		tuples[r] = data.Tuple{Key: mixKey(r), Row: data.Scalar(0)}
	}
	db.Load(tuples...)

	lockedLevels := []engine.Level{engine.CursorStability, engine.RepeatableRead, engine.Serializable}
	perTx := map[int]engine.Level{}
	var steps []schedule.Step
	type readStep struct {
		name  string
		dirty bool // the unlocked witness
	}
	reads := map[string]readStep{}
	txn := 0
	for r := 0; r < rounds; r++ {
		key := mixKey(r)
		dirtyVal := int64(100 + r)

		txn++
		writer := txn
		perTx[writer] = engine.ReadUncommitted
		steps = append(steps, schedule.OpStep(writer, fmt.Sprintf("w%d[%s]", writer, key), func(c *schedule.Ctx) (any, error) {
			return nil, engine.PutVal(c.Tx, key, dirtyVal)
		}))

		txn++
		witness := txn
		perTx[witness] = engine.ReadUncommitted
		name := fmt.Sprintf("r%d[%s]", witness, key)
		reads[name] = readStep{name: name, dirty: true}
		steps = append(steps, schedule.OpStep(witness, name, func(c *schedule.Ctx) (any, error) {
			return engine.GetVal(c.Tx, key)
		}))

		readers := make([]int, len(lockedLevels))
		for i, lvl := range lockedLevels {
			txn++
			t := txn
			perTx[t] = lvl
			readers[i] = t
			name := fmt.Sprintf("r%d[%s]", t, key)
			reads[name] = readStep{name: name}
			steps = append(steps, schedule.OpStep(t, name, func(c *schedule.Ctx) (any, error) {
				return engine.GetVal(c.Tx, key)
			}))
		}

		steps = append(steps, schedule.AbortStep(writer))
		steps = append(steps, schedule.CommitStep(witness))
		for _, t := range readers {
			steps = append(steps, schedule.CommitStep(t))
		}
	}

	res, err := schedule.Run(db, schedule.Options{Level: engine.ReadUncommitted, PerTx: perTx}, steps)
	if err != nil {
		return MixedFanOutResult{}, err
	}
	out := MixedFanOutResult{Rounds: rounds}
	for _, st := range res.Steps {
		rs, ok := reads[st.Name]
		if !ok {
			continue
		}
		v, _ := st.Value.(int64)
		if rs.dirty {
			if !st.Blocked && v >= 100 {
				out.DirtyReads++
			}
			continue
		}
		if st.Blocked {
			out.BlockedReads++
			if v == 0 {
				out.RestoredReads++
			}
		}
	}
	return out, nil
}
