package anomalies

import (
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/schedule"
)

// NewDBFor instantiates the engine implementing the given isolation level:
// the Table 2 locking scheduler for the locking levels, and the one
// multiversion engine, which serves §4.2 SNAPSHOT ISOLATION and §4.3
// READ CONSISTENCY side by side, for the other two.
func NewDBFor(level engine.Level) engine.DB {
	switch level {
	case engine.SnapshotIsolation, engine.ReadConsistency:
		return mvcc.NewDB()
	default:
		return locking.NewDB()
	}
}

// Run executes the scenario on a fresh engine at the given level and
// returns the detector's verdict alongside the raw schedule result.
func Run(sc Scenario, level engine.Level) (Outcome, *schedule.Result, error) {
	db := NewDBFor(level)
	db.Load(sc.Setup...)
	res, err := schedule.Run(db, schedule.Options{Level: level}, sc.Steps())
	if err != nil {
		return Outcome{}, res, err
	}
	return sc.Check(db, res), res, nil
}
