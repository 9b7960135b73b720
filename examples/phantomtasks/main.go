// Phantomtasks replays the paper's §4.2 closing example: a predicate
// constraint ("the tasks assigned to a worker may not exceed 8 hours") and
// two planners who each check the predicate, see 7 hours, and insert a
// 1-hour task. Because they insert *different* rows, Snapshot Isolation's
// first-committer-wins does not fire and the committed schedule has 9
// hours — the P3 phantom SI does not preclude. SERIALIZABLE's long
// predicate locks turn the same schedule into a deadlock; one planner
// retries and correctly refuses.
package main

import (
	"fmt"
	"log"

	isolevel "isolevel"
)

const limit = 8

func main() {
	for _, level := range []isolevel.Level{isolevel.SnapshotIsolation, isolevel.Serializable} {
		fmt.Printf("== planning tasks at %s (limit %dh) ==\n", level, limit)
		run(level)
		fmt.Println()
	}
}

func run(level isolevel.Level) {
	db := isolevel.NewDBFor(level)
	db.Load(
		isolevel.Tuple{Key: "task:1", Row: isolevel.NewRow(map[string]int64{"hours": 4})},
		isolevel.Tuple{Key: "task:2", Row: isolevel.NewRow(map[string]int64{"hours": 3})},
	)
	pred := isolevel.MustPredicate(`key ~ "task:"`)

	checkAndInsert := func(txn int, key isolevel.Key) []isolevel.Step {
		sum := isolevel.OpStep(txn, fmt.Sprintf("r%d[P]", txn), func(c *isolevel.ScheduleCtx) (any, error) {
			rows, err := c.Tx.Select(pred)
			if err != nil {
				return nil, err
			}
			var total int64
			for _, r := range rows {
				h, _ := r.Row.Get("hours")
				total += h
			}
			c.Vars["sum"] = total
			return total, nil
		})
		ins := isolevel.OpStep(txn, fmt.Sprintf("w%d[%s]", txn, key), func(c *isolevel.ScheduleCtx) (any, error) {
			if c.Int("sum")+1 > limit {
				return nil, fmt.Errorf("refused: %dh + 1h exceeds the limit", c.Int("sum"))
			}
			return nil, c.Tx.Put(key, isolevel.NewRow(map[string]int64{"hours": 1}))
		})
		return []isolevel.Step{sum, ins}
	}

	p1 := checkAndInsert(1, "task:3")
	p2 := checkAndInsert(2, "task:4")
	res, err := isolevel.RunSchedule(db, level, []isolevel.Step{
		p1[0], p2[0], // both see 7 hours
		p1[1], p2[1], // both insert a 1-hour task
		isolevel.CommitStep(1),
		isolevel.CommitStep(2),
	})
	if err != nil {
		log.Fatal(err)
	}

	var total int64
	tx, _ := db.Begin(level)
	rows, _ := tx.Select(pred)
	for _, r := range rows {
		h, _ := r.Row.Get("hours")
		total += h
	}
	_ = tx.Commit()

	fmt.Printf("T1 committed: %v, T2 committed: %v\n", res.Committed[1], res.Committed[2])
	fmt.Printf("committed schedule: %d tasks, %d hours\n", len(rows), total)
	if total > limit {
		fmt.Println("PHANTOM (P3): both inserts slipped past the predicate — SI has no predicate locks")
	} else {
		fmt.Println("limit enforced")
	}
}
