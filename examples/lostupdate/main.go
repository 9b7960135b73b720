// Lostupdate replays H4 (§4.1) — two clients increment the same counter
// from stale reads — across the levels that tell the lost-update story:
// READ COMMITTED loses an update, Cursor Stability saves it when (and only
// when) the client uses a cursor, REPEATABLE READ turns the race into an
// upgrade deadlock, and Snapshot Isolation aborts the second committer.
package main

import (
	"fmt"
	"log"

	isolevel "isolevel"
)

func main() {
	fmt.Println("H4: r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1 — is T2's +20 lost?")
	for _, level := range []isolevel.Level{
		isolevel.ReadCommitted,
		isolevel.CursorStability,
		isolevel.RepeatableRead,
		isolevel.SnapshotIsolation,
	} {
		fmt.Printf("\n== %s, plain reads ==\n", level)
		runPlain(level)
	}
	fmt.Printf("\n== %s, reads through a cursor (the paper's rc/wc) ==\n", isolevel.CursorStability)
	runCursor(isolevel.CursorStability)
}

func runPlain(level isolevel.Level) {
	db := isolevel.NewDBFor(level)
	db.Load(isolevel.Scalar("x", 100))
	res, err := isolevel.RunSchedule(db, level, []isolevel.Step{
		readInto(1, "x"),
		readInto(2, "x"),
		addFromVar(2, "x", 20),
		isolevel.CommitStep(2),
		addFromVar(1, "x", 30),
		isolevel.CommitStep(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	describe(db, res)
}

func runCursor(level isolevel.Level) {
	db := isolevel.NewDBFor(level)
	db.Load(isolevel.Scalar("x", 100))
	res, err := isolevel.RunSchedule(db, level, []isolevel.Step{
		isolevel.OpStep(1, "rc1[x]", func(c *isolevel.ScheduleCtx) (any, error) {
			cur, err := c.Tx.OpenCursor(isolevel.MustPredicate(`key == "x"`))
			if err != nil {
				return nil, err
			}
			c.Vars["cur"] = cur
			tup, err := cur.Fetch()
			if err != nil {
				return nil, err
			}
			c.Vars["x"] = tup.Row.Val()
			return tup.Row.Val(), nil
		}),
		readInto(2, "x"),
		addFromVar(2, "x", 20),
		isolevel.CommitStep(2),
		isolevel.OpStep(1, "wc1[x]", func(c *isolevel.ScheduleCtx) (any, error) {
			return nil, c.Cursor("cur").UpdateCurrent(isolevel.NewRow(map[string]int64{"val": c.Int("x") + 30}))
		}),
		isolevel.CommitStep(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	describe(db, res)
}

func readInto(txn int, key isolevel.Key) isolevel.Step {
	return isolevel.OpStep(txn, fmt.Sprintf("r%d[%s]", txn, key), func(c *isolevel.ScheduleCtx) (any, error) {
		v, err := isolevel.GetVal(c.Tx, key)
		if err != nil {
			return nil, err
		}
		c.Vars[string(key)] = v
		return v, nil
	})
}

func addFromVar(txn int, key isolevel.Key, delta int64) isolevel.Step {
	return isolevel.OpStep(txn, fmt.Sprintf("w%d[%s+=%d]", txn, key, delta), func(c *isolevel.ScheduleCtx) (any, error) {
		return nil, isolevel.PutVal(c.Tx, key, c.Int(string(key))+delta)
	})
}

func describe(db isolevel.DB, res *isolevel.ScheduleResult) {
	final := db.ReadCommittedRow("x").Val()
	fmt.Printf("T1 committed: %v, T2 committed: %v, final x=%d\n",
		res.Committed[1], res.Committed[2], final)
	for name, err := range res.Errs() {
		fmt.Printf("  %s: %v\n", name, err)
	}
	switch {
	case res.Committed[1] && res.Committed[2] && final == 130:
		fmt.Println("LOST UPDATE (P4): T2's +20 vanished under T1's stale read-modify-write")
	case res.Committed[1] && res.Committed[2] && final == 120:
		fmt.Println("LOST UPDATE (P4): T1's +30 vanished — the cursor protected T1's own\n" +
			"update, but T2 still read-modify-wrote from a stale value (the paper's\n" +
			"'Sometimes Possible': only cursor-based clients are protected)")
	case res.Committed[1] && res.Committed[2] && final == 150:
		fmt.Println("both updates applied — fully serial outcome")
	default:
		fmt.Println("prevented: one transaction blocked or aborted; no update lost")
	}
}
