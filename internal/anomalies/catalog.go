package anomalies

import (
	"fmt"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/schedule"
)

// Catalog returns the full scenario catalog, keyed by Table 4 column and
// variant. Fresh scenarios are built on each call; they carry no state.
func Catalog() []Scenario {
	return []Scenario{
		P0DirtyWrite(),
		P1DirtyRead(),
		P4CCursorLostUpdate(),
		P4LostUpdate(),
		P2FuzzyRead(),
		P2FuzzyReadCursorGuarded(),
		P3PhantomReread(),
		P3PhantomConstraint(),
		A5AReadSkew(),
		A5BWriteSkew(),
		A5BWriteSkewCursorGuarded(),
	}
}

// Primary returns the plain scenario for a Table 4 column.
func Primary(id string) Scenario {
	for _, sc := range Catalog() {
		if sc.ID == id && sc.Variant == "" {
			return sc
		}
	}
	panic("anomalies: no primary scenario for " + id)
}

// Guarded returns the guarded variant for a column, if any.
func Guarded(id string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.ID == id && sc.Variant != "" && sc.Variant != "constraint" {
			return sc, true
		}
	}
	return Scenario{}, false
}

// P0DirtyWrite runs the paper's §3 dirty-write history
// w1[x=1] w2[x=2] w2[y=2] c2 w1[y=1] c1 against the constraint x == y.
// Interleaved uncommitted writes leave x=2, y=1.
func P0DirtyWrite() Scenario {
	return Scenario{
		ID:          "P0",
		Description: "w1[x=1] w2[x=2] w2[y=2] c2 w1[y=1] c1 under constraint x == y",
		Setup:       scalarSetup(map[string]int64{"x": 0, "y": 0}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				wr(1, "x", 1),
				wr(2, "x", 2),
				wr(2, "y", 2),
				schedule.CommitStep(2),
				wr(1, "y", 1),
				schedule.CommitStep(1),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			x, y := val(db, "x"), val(db, "y")
			if x != y {
				return Outcome{Anomaly: true,
					Details: fmtDetails("final x=%d y=%d violates x == y (both writers' values survive partially)", x, y)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("final x=%d y=%d consistent", x, y)}
		},
	}
}

// P1DirtyRead runs the inconsistent-analysis read of an uncommitted
// transfer: w1[x=10] r2[x] r2[y] c2 a1 against invariant x + y == 100.
func P1DirtyRead() Scenario {
	return Scenario{
		ID:          "P1",
		Description: "w1[x=10] r2[x] r2[y] c2 a1: T2 sums a 40-in-flight transfer",
		Setup:       scalarSetup(map[string]int64{"x": 50, "y": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				wr(1, "x", 10),
				rd(2, "x"),
				rd(2, "y"),
				schedule.CommitStep(2),
				schedule.AbortStep(1),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			x, okx := stepInt(res, "r2[x]")
			y, oky := stepInt(res, "r2[y]")
			if okx && oky && x+y != 100 {
				return Outcome{Anomaly: true,
					Details: fmtDetails("T2 saw x+y = %d (read uncommitted, later rolled-back data)", x+y)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("T2 saw x+y = %d", x+y)}
		},
	}
}

// P4CCursorLostUpdate runs H4's cursor form (§4.1):
// rc1[x=100] w2[x=120] c2 wc1[x=130] c1.
func P4CCursorLostUpdate() Scenario {
	return Scenario{
		ID:          "P4C",
		Description: "H4C: rc1[x=100] w2[x=120] c2 wc1[x=130] c1",
		Setup:       scalarSetup(map[string]int64{"x": 100}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				openFetch(1, "cur", "x"),
				wr(2, "x", 120),
				schedule.CommitStep(2),
				curUpdateDelta(1, "cur", "x", 30),
				schedule.CommitStep(1),
			}
		},
		Check: lostUpdateCheck,
	}
}

// P4LostUpdate runs H4 (§4.1):
// r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1.
func P4LostUpdate() Scenario {
	return Scenario{
		ID:          "P4",
		Description: "H4: r1[x=100] r2[x=100] w2[x=120] c2 w1[x=130] c1",
		Setup:       scalarSetup(map[string]int64{"x": 100}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				rd(1, "x"),
				rd(2, "x"),
				wrDelta(2, "x", "x", 20),
				schedule.CommitStep(2),
				wrDelta(1, "x", "x", 30),
				schedule.CommitStep(1),
			}
		},
		Check: lostUpdateCheck,
	}
}

// lostUpdateCheck: both committed and T2's +20 vanished (final 130 instead
// of 150).
func lostUpdateCheck(db engine.DB, res *schedule.Result) Outcome {
	x := val(db, "x")
	if res.Committed[1] && res.Committed[2] && x == 130 {
		return Outcome{Anomaly: true,
			Details: fmtDetails("final x=%d: T2's +20 was overwritten by T1's stale read-modify-write", x)}
	}
	return Outcome{Mechanism: mechanism(res),
		Details: fmtDetails("final x=%d, committed T1=%v T2=%v", x, res.Committed[1], res.Committed[2])}
}

// P2FuzzyRead runs the strict-A2 manifestation:
// r1[x=50] w2[x=10] c2 r1[x] c1 — T1's two reads differ.
func P2FuzzyRead() Scenario {
	return Scenario{
		ID:          "P2",
		Description: "r1[x=50] w2[x=10] c2 r1[x again] c1",
		Setup:       scalarSetup(map[string]int64{"x": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				rd(1, "x"),
				wr(2, "x", 10),
				schedule.CommitStep(2),
				reread(1, "x", "x2"),
				schedule.CommitStep(1),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			first, ok1 := stepInt(res, "r1[x]")
			second, ok2 := stepInt(res, "r1[x again]")
			if ok1 && ok2 && first != second {
				return Outcome{Anomaly: true,
					Details: fmtDetails("T1 read %d then %d (non-repeatable)", first, second)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("T1 read %d then %d", first, second)}
		},
	}
}

func reread(txn int, key, varName string) schedule.Step {
	s := rd(txn, key)
	s.Name = fmtDetails("r%d[%s again]", txn, key)
	inner := s.Do
	s.Do = func(c *schedule.Ctx) (any, error) {
		v, err := inner(c)
		if err == nil {
			c.Vars[varName] = v
		}
		return v, err
	}
	return s
}

// P2FuzzyReadCursorGuarded is the guarded variant: T1 parks a cursor on x
// (§4.1's stabilization technique), so at Cursor Stability the overwrite
// blocks and the reread is stable.
func P2FuzzyReadCursorGuarded() Scenario {
	return Scenario{
		ID:          "P2",
		Variant:     "cursor",
		Description: "rc1[x=50] w2[x=10] rc1[x again] c1 c2 — cursor parked on x",
		Setup:       scalarSetup(map[string]int64{"x": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				openFetch(1, "cur", "x"),
				wr(2, "x", 10),
				curRead(1, "cur", "x2"),
				schedule.CommitStep(1),
				schedule.CommitStep(2),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			first, ok1 := stepInt(res, "rc1[x]")
			second, ok2 := stepInt(res, "rc1[x2 again]")
			if ok1 && ok2 && first != second {
				return Outcome{Anomaly: true,
					Details: fmtDetails("cursor read %d then %d", first, second)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("cursor reads stable at %d", first)}
		},
	}
}

// P3PhantomReread runs H3's shape as a strict-A3 manifestation: T1 counts
// active employees, T2 inserts one and commits, T1 re-counts.
func P3PhantomReread() Scenario {
	return Scenario{
		ID:          "P3",
		Description: "r1[P] w2[insert e3 in P] c2 r1[P again] c1, P = active employees",
		Setup: []data.Tuple{
			{Key: "emp:1", Row: data.NewRow(map[string]int64{"active": 1})},
			{Key: "emp:2", Row: data.NewRow(map[string]int64{"active": 1})},
		},
		Steps: func() []schedule.Step {
			return []schedule.Step{
				selCount(1, "n1", "active == 1"),
				insert(2, "emp:3", data.NewRow(map[string]int64{"active": 1})),
				schedule.CommitStep(2),
				selCount(1, "n2", "active == 1"),
				schedule.CommitStep(1),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			n1, ok1 := stepInt(res, "r1[P:n1]")
			n2, ok2 := stepInt(res, "r1[P:n2]")
			if ok1 && ok2 && n1 != n2 {
				return Outcome{Anomaly: true,
					Details: fmtDetails("predicate returned %d then %d rows (phantom)", n1, n2)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("predicate stable at %d rows", n1)}
		},
	}
}

// P3PhantomConstraint is the paper's §4.2 closing example: tasks under a
// predicate must sum to <= 8 hours; two transactions each see 7, each
// insert a 1-hour task (disjoint keys!), both commit — the committed state
// has 9 hours. This is the P3 phantom Snapshot Isolation does NOT preclude.
func P3PhantomConstraint() Scenario {
	return Scenario{
		ID:          "P3",
		Variant:     "constraint",
		Description: "two txns check sum(hours)<=8 then insert disjoint 1h tasks (SI's P3)",
		Setup: []data.Tuple{
			{Key: "task:1", Row: data.NewRow(map[string]int64{"hours": 4})},
			{Key: "task:2", Row: data.NewRow(map[string]int64{"hours": 3})},
		},
		Steps: func() []schedule.Step {
			return []schedule.Step{
				selSum(1, "s1", `key ~ "task:"`, "hours"),
				selSum(2, "s2", `key ~ "task:"`, "hours"),
				insert(1, "task:3", data.NewRow(map[string]int64{"hours": 1})),
				insert(2, "task:4", data.NewRow(map[string]int64{"hours": 1})),
				schedule.CommitStep(1),
				schedule.CommitStep(2),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			var sum int64
			for _, k := range []string{"task:1", "task:2", "task:3", "task:4"} {
				if row := db.ReadCommittedRow(data.Key(k)); row != nil {
					h, _ := row.Get("hours")
					sum += h
				}
			}
			if res.Committed[1] && res.Committed[2] && sum > 8 {
				return Outcome{Anomaly: true,
					Details: fmtDetails("committed sum(hours)=%d > 8 — both inserts slipped past the predicate", sum)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("committed sum(hours)=%d", sum)}
		},
	}
}

// A5AReadSkew runs r1[x=50] w2[x=10] w2[y=90] c2 r1[y] c1 against the
// invariant x + y == 100.
func A5AReadSkew() Scenario {
	return Scenario{
		ID:          "A5A",
		Description: "r1[x=50] w2[x=10] w2[y=90] c2 r1[y] c1, invariant x+y == 100",
		Setup:       scalarSetup(map[string]int64{"x": 50, "y": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				rd(1, "x"),
				wr(2, "x", 10),
				wr(2, "y", 90),
				schedule.CommitStep(2),
				rd(1, "y"),
				schedule.CommitStep(1),
			}
		},
		Check: func(db engine.DB, res *schedule.Result) Outcome {
			x, okx := stepInt(res, "r1[x]")
			y, oky := stepInt(res, "r1[y]")
			if okx && oky && x+y != 100 {
				return Outcome{Anomaly: true,
					Details: fmtDetails("T1 saw x+y = %d (x before, y after T2's consistent update)", x+y)}
			}
			return Outcome{Mechanism: mechanism(res),
				Details: fmtDetails("T1 saw x+y = %d", x+y)}
		},
	}
}

// A5BWriteSkew runs H5 (§4.2): r1[x] r1[y] r2[x] r2[y] w1[y=-40] w2[x=-40]
// c1 c2 against the constraint x + y > 0.
func A5BWriteSkew() Scenario {
	return Scenario{
		ID:          "A5B",
		Description: "H5: r1[x] r1[y] r2[x] r2[y] w1[y=-40] w2[x=-40] c1 c2, constraint x+y > 0",
		Setup:       scalarSetup(map[string]int64{"x": 50, "y": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				rd(1, "x"),
				rd(1, "y"),
				rd(2, "x"),
				rd(2, "y"),
				wr(1, "y", -40),
				wr(2, "x", -40),
				schedule.CommitStep(1),
				schedule.CommitStep(2),
			}
		},
		Check: writeSkewCheck,
	}
}

// A5BWriteSkewCursorGuarded: each transaction parks cursors on both x and y
// before writing (multiple cursors, §4.1's workaround), turning the skew
// into an upgrade deadlock at Cursor Stability.
func A5BWriteSkewCursorGuarded() Scenario {
	return Scenario{
		ID:          "A5B",
		Variant:     "two-cursors",
		Description: "H5 with both txns holding cursors on x and y before writing",
		Setup:       scalarSetup(map[string]int64{"x": 50, "y": 50}),
		Steps: func() []schedule.Step {
			return []schedule.Step{
				openFetch(1, "c1x", "x"),
				openFetch(1, "c1y", "y"),
				openFetch(2, "c2x", "x"),
				openFetch(2, "c2y", "y"),
				curUpdate(1, "c1y", -40),
				curUpdate(2, "c2x", -40),
				schedule.CommitStep(1),
				schedule.CommitStep(2),
			}
		},
		Check: writeSkewCheck,
	}
}

func writeSkewCheck(db engine.DB, res *schedule.Result) Outcome {
	x, y := val(db, "x"), val(db, "y")
	if res.Committed[1] && res.Committed[2] && x+y < 0 {
		return Outcome{Anomaly: true,
			Details: fmtDetails("committed x+y = %d < 0 — both withdrawals honored a stale constraint check", x+y)}
	}
	return Outcome{Mechanism: mechanism(res),
		Details: fmtDetails("committed x+y = %d, committed T1=%v T2=%v", x+y, res.Committed[1], res.Committed[2])}
}

func fmtDetails(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
