package anomalies

import (
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/schedule"
)

// NewDBFor instantiates the engine implementing the given isolation level:
// the Table 2 locking scheduler for the locking levels, the §4.2
// multiversion engine for SNAPSHOT ISOLATION, and the §4.3 statement-
// snapshot engine for READ CONSISTENCY.
func NewDBFor(level engine.Level) engine.DB {
	switch level {
	case engine.SnapshotIsolation:
		return mvcc.NewDB(mvcc.WithLevels(engine.SnapshotIsolation))
	case engine.ReadConsistency:
		return mvcc.NewDB(mvcc.WithLevels(engine.ReadConsistency))
	default:
		return locking.NewDB()
	}
}

// NewDBForShards is NewDBFor with an explicit stripe count, honored by
// every engine family: the multiversion engines stripe their store (and,
// for Read Consistency, the write-lock manager), the locking engine its
// lock tables. shards <= 0 means each engine's default.
func NewDBForShards(level engine.Level, shards int) engine.DB {
	if shards <= 0 {
		return NewDBFor(level)
	}
	switch level {
	case engine.SnapshotIsolation:
		return mvcc.NewDB(mvcc.WithShards(shards), mvcc.WithLevels(engine.SnapshotIsolation))
	case engine.ReadConsistency:
		return mvcc.NewDB(mvcc.WithShards(shards), mvcc.WithLevels(engine.ReadConsistency))
	default:
		return locking.NewDB(locking.WithShards(shards))
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
