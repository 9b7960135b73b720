package isolevel

import (
	"isolevel/internal/anomalies"
	"isolevel/internal/ansi"
	"isolevel/internal/data"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/exerciser"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/locking"
	"isolevel/internal/matrix"
	"isolevel/internal/mv"
	"isolevel/internal/mvcc"
	"isolevel/internal/phenomena"
	"isolevel/internal/predicate"
	"isolevel/internal/report"
	"isolevel/internal/schedule"
	"isolevel/internal/workload"
)

// --- Isolation levels ---

// Level is an isolation level (Table 2 locking levels plus the §4
// multiversion levels).
type Level = engine.Level

// Isolation levels.
const (
	Degree0           = engine.Degree0
	ReadUncommitted   = engine.ReadUncommitted
	ReadCommitted     = engine.ReadCommitted
	CursorStability   = engine.CursorStability
	RepeatableRead    = engine.RepeatableRead
	Serializable      = engine.Serializable
	SnapshotIsolation = engine.SnapshotIsolation
	ReadConsistency   = engine.ReadConsistency
)

// Levels lists every implemented isolation level.
var Levels = engine.Levels

// --- Engine contract ---

// DB is a database engine instance (one store + one concurrency-control
// scheduler).
type DB = engine.DB

// Tx is a transaction handle.
type Tx = engine.Tx

// Cursor is a SQL-style cursor (§4.1).
type Cursor = engine.Cursor

// Engine errors (errors.Is-compatible).
var (
	ErrDeadlock       = engine.ErrDeadlock
	ErrWriteConflict  = engine.ErrWriteConflict
	ErrRowChanged     = engine.ErrRowChanged
	ErrNotFound       = engine.ErrNotFound
	ErrTxDone         = engine.ErrTxDone
	ErrUnsupported    = engine.ErrUnsupported
	ErrSnapshotTooOld = engine.ErrSnapshotTooOld
)

// NewLockingDB returns the Table 2 locking engine (Degree 0, READ
// UNCOMMITTED, READ COMMITTED, CURSOR STABILITY, REPEATABLE READ,
// SERIALIZABLE).
func NewLockingDB() *locking.DB { return locking.NewDB() }

// NewLockingDBShards returns the locking engine with an explicit
// lock-table stripe count (1 reproduces the old single-latch lock
// manager; higher counts let disjoint-key lock traffic proceed in
// parallel).
func NewLockingDBShards(shards int) *locking.DB {
	return locking.NewDB(locking.WithShards(shards))
}

// NewKeyrangeDB returns the locking engine with key-range (next-key)
// phantom prevention instead of the gated cross-stripe predicate table:
// range scans install per-stripe next-key fragments over the existing
// keys and gaps of their predicate's key range, inserts acquire their
// covering gap's exclusive lock, and no path ever takes the gate's
// exclusive side (LockStats().GateAcquires stays zero). Behaviorally
// equivalent to NewLockingDB at every Table 2 level.
func NewKeyrangeDB() *locking.DB {
	return locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
}

// NewKeyrangeDBShards is NewKeyrangeDB with an explicit stripe count.
func NewKeyrangeDBShards(shards int) *locking.DB {
	return locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange), locking.WithShards(shards))
}

// NewSnapshotDB returns the §4.2 Snapshot Isolation engine
// (first-committer-wins, snapshot reads, time travel via BeginAsOf — back
// to the oldest snapshot still held open; older is ErrSnapshotTooOld).
func NewSnapshotDB() *mvcc.DB { return mvcc.NewDB(mvcc.WithLevels(engine.SnapshotIsolation)) }

// NewSnapshotDBFirstUpdaterWins returns the eager-conflict ablation of the
// Snapshot Isolation engine (conflicts surface at write time).
func NewSnapshotDBFirstUpdaterWins() *mvcc.DB {
	return mvcc.NewDB(mvcc.FirstUpdaterWins(), mvcc.WithLevels(engine.SnapshotIsolation))
}

// NewSnapshotDBShards returns the Snapshot Isolation engine with an
// explicit store stripe count (1 reproduces the old single-commit-mutex
// behavior; higher counts let disjoint write sets commit in parallel).
func NewSnapshotDBShards(shards int) *mvcc.DB {
	return mvcc.NewDB(mvcc.WithShards(shards), mvcc.WithLevels(engine.SnapshotIsolation))
}

// NewOracleRCDB returns the §4.3 Oracle-style Read Consistency engine
// (statement-level snapshots, first-writer-wins write locks).
func NewOracleRCDB() *mvcc.DB { return mvcc.NewDB(mvcc.WithLevels(engine.ReadConsistency)) }

// NewOracleRCDBShards returns the Read Consistency engine with an explicit
// store stripe count.
func NewOracleRCDBShards(shards int) *mvcc.DB {
	return mvcc.NewDB(mvcc.WithShards(shards), mvcc.WithLevels(engine.ReadConsistency))
}

// NewDBFor returns a fresh engine implementing the given level.
func NewDBFor(level Level) DB { return anomalies.NewDBFor(level) }

// NewDBForShards is NewDBFor with an explicit stripe count, honored by
// every engine family (multiversion store stripes and locking-engine lock
// table stripes alike; <= 0 means the default).
func NewDBForShards(level Level, shards int) DB { return anomalies.NewDBForShards(level, shards) }

// --- Rows ---

// Key identifies a data item.
type Key = data.Key

// Row is a set of named int64 fields.
type Row = data.Row

// Tuple pairs a key with a row.
type Tuple = data.Tuple

// Scalar builds a tuple holding a single "val" field, the shape of the
// paper's x/y/z items.
func Scalar(key Key, v int64) Tuple { return Tuple{Key: key, Row: data.Scalar(v)} }

// GetVal reads the scalar value of key inside tx.
func GetVal(tx Tx, key Key) (int64, error) { return engine.GetVal(tx, key) }

// PutVal writes a scalar row inside tx.
func PutVal(tx Tx, key Key, v int64) error { return engine.PutVal(tx, key, v) }

// --- Predicates ---

// Predicate is a <search condition> over rows.
type Predicate = predicate.P

// ParsePredicate parses "active == 1 && hours < 8" style conditions.
func ParsePredicate(src string) (Predicate, error) { return predicate.Parse(src) }

// MustPredicate is ParsePredicate that panics on error.
func MustPredicate(src string) Predicate { return predicate.MustParse(src) }

// --- Histories and phenomena ---

// History is a linear ordering of transactional actions in the paper's
// notation.
type History = history.History

// ParseHistory parses the paper's shorthand ("w1[x] r2[x] c1 a2").
func ParseHistory(src string) (History, error) { return history.Parse(src) }

// MustHistory is ParseHistory that panics on error.
func MustHistory(src string) History { return history.MustParse(src) }

// PhenomenonID names a phenomenon or anomaly (P0, P1, A1, ..., A5B).
type PhenomenonID = phenomena.ID

// Phenomena lists every matcher-backed identifier.
var Phenomena = phenomena.All

// Exhibits reports whether h contains phenomenon id.
func Exhibits(id PhenomenonID, h History) bool { return phenomena.Exhibits(id, h) }

// PhenomenaProfile returns all phenomena h exhibits.
func PhenomenaProfile(h History) map[PhenomenonID]bool {
	out := map[PhenomenonID]bool{}
	for id := range phenomena.Profile(h) {
		out[id] = true
	}
	return out
}

// StreamingProfile is PhenomenaProfile computed by the incremental
// checker: one pass, per-op work bounded by live transactions rather than
// history length. Equivalent to PhenomenaProfile on well-formed histories.
func StreamingProfile(h History) map[PhenomenonID]bool { return phenomena.StreamProfile(h) }

// ConflictSerializable reports whether h's committed projection is
// conflict-serializable (acyclic dependency graph, §2.1).
func ConflictSerializable(h History) bool { return deps.Serializable(h) }

// EquivalentSerialOrder returns an equivalent serial order of committed
// transactions, or nil if h is not conflict-serializable.
func EquivalentSerialOrder(h History) []int { return deps.EquivalentSerialOrder(h) }

// AnsiLevel is a phenomenon-based isolation level acceptor (Tables 1 & 3).
type AnsiLevel = ansi.Level

// The Table 1 / Table 3 acceptors.
var (
	AnomalySerializable = ansi.AnomalySerializable
	AnsiTable1Strict    = ansi.Table1Strict
	AnsiTable1Broad     = ansi.Table1Broad
	AnsiTable3          = ansi.Table3
)

// Paper histories (§3, §4).
var (
	H1             = history.H1
	H2             = history.H2
	H3             = history.H3
	H4             = history.H4
	H5             = history.H5
	H1SI           = history.H1SI
	H1SISV         = history.H1SISV
	DirtyWriteHist = history.DirtyWrite
)

// --- Scenarios and matrix regeneration ---

// Scenario is a runnable anomaly experiment.
type Scenario = anomalies.Scenario

// Outcome is a scenario verdict.
type Outcome = anomalies.Outcome

// Scenarios returns the full Table 4 scenario catalog.
func Scenarios() []Scenario { return anomalies.Catalog() }

// RunScenario executes a scenario at a level on a fresh engine.
func RunScenario(sc Scenario, level Level) (Outcome, error) {
	out, _, err := anomalies.Run(sc, level)
	return out, err
}

// Cell is a Table 4 cell value.
type Cell = matrix.Cell

// Cell values.
const (
	NotPossible       = matrix.NotPossible
	SometimesPossible = matrix.SometimesPossible
	Possible          = matrix.Possible
)

// Table4 measures the paper's Table 4 on live engines (defaults to the
// paper's six rows).
func Table4(levels ...Level) (*matrix.Table4Result, error) { return matrix.RunTable4(levels...) }

// Table4AllLevels measures Table 4 over the paper's rows plus Degree 0 and
// Oracle Read Consistency.
func Table4AllLevels() (*matrix.Table4Result, error) {
	all := append(append([]Level{}, matrix.PaperLevels...), matrix.ExtensionLevels...)
	return matrix.RunTable4(all...)
}

// Table1 regenerates the paper's Table 1 from the phenomenon acceptors.
func Table1() *report.Table { return matrix.RunTable1() }

// Table2 regenerates Table 2 (declared lock protocol + live probes).
func Table2() (*report.Table, []string, error) { return matrix.RunTable2() }

// Table3 regenerates the repaired Table 3.
func Table3() *report.Table { return matrix.RunTable3() }

// Hierarchy is the measured Figure 2.
type Hierarchy = matrix.Hierarchy

// RemarkResult is the verification outcome of one of the paper's Remarks.
type RemarkResult = matrix.RemarkResult

// VerifyRemarks checks the paper's Remarks 1-10 against the live engines.
func VerifyRemarks() ([]RemarkResult, error) { return matrix.VerifyRemarks() }

// Figure2 computes the measured isolation hierarchy from a Table 4 run.
func Figure2(t4 *matrix.Table4Result) *Hierarchy { return matrix.BuildHierarchy(t4) }

// --- Scripted schedules ---

// Step is one action of a scripted interleaving.
type Step = schedule.Step

// ScheduleCtx is the per-transaction context handed to step closures.
type ScheduleCtx = schedule.Ctx

// ScheduleResult is the outcome of running a script.
type ScheduleResult = schedule.Result

// RunSchedule executes a scripted interleaving against db with every
// transaction at the given level.
func RunSchedule(db DB, level Level, steps []Step) (*ScheduleResult, error) {
	return schedule.Run(db, schedule.Options{Level: level}, steps)
}

// OpStep, CommitStep and AbortStep build script steps.
var (
	OpStep     = schedule.OpStep
	CommitStep = schedule.CommitStep
	AbortStep  = schedule.AbortStep
)

// --- Differential isolation fuzzing ---

// FuzzOptions configure a fuzz campaign (see internal/exerciser).
type FuzzOptions = exerciser.Options

// FuzzReport is a campaign's deterministic outcome.
type FuzzReport = exerciser.Report

// FuzzFinding is one oracle violation, with its minimized history when
// shrinking was requested.
type FuzzFinding = exerciser.Finding

// Fuzz runs a differential fuzz campaign: seeded generated schedules
// replayed on every engine family at every isolation level, recorded
// traces normalized and checked against the Table 4 oracle. Set
// FuzzOptions.Mixed for per-transaction level assignments judged by the
// per-transaction oracle.
func Fuzz(opts FuzzOptions) (*FuzzReport, error) { return exerciser.Run(opts) }

// --- Mixed isolation levels ---

// LevelAssign is a per-transaction isolation level assignment (uniform
// when PerTx is empty).
type LevelAssign = exerciser.Assign

// UniformLevels assigns every transaction the same level.
func UniformLevels(l Level) LevelAssign { return exerciser.UniformAssign(l) }

// PerTxLevels wraps an explicit per-transaction level map.
func PerTxLevels(perTx map[int]Level) LevelAssign { return exerciser.PerTxAssign(perTx) }

// ParseLevels reads the annotation form "T1=RR T2=RC ..." (the syntax of
// `isolevel check -f`'s "# levels:" lines; codes D0 RU RC CS RR SER SI
// ORC or full level names).
func ParseLevels(src string) (LevelAssign, error) { return exerciser.ParseAssign(src) }

// PhenomenonPair names the two transactions participating in a witnessed
// phenomenon, in the pattern's subscript order.
type PhenomenonPair = phenomena.Pair

// PhenomenaAttribution returns every phenomenon h exhibits together with
// the participating transaction pairs (streaming checker).
func PhenomenaAttribution(h History) map[PhenomenonID]map[PhenomenonPair]bool {
	return phenomena.StreamAttribution(h)
}

// LevelCharge is one per-transaction oracle violation: a phenomenon
// charged to a victim transaction whose own level forbids it.
type LevelCharge = exerciser.Charge

// JudgeHistory runs the per-transaction oracle over a history under a
// level assignment: every witnessed phenomenon is charged to its victim,
// and only charges the victim's own level forbids are returned. An empty
// result means the history is legal for the assignment.
func JudgeHistory(h History, assign LevelAssign) []LevelCharge {
	return exerciser.NewOracle().Charges(phenomena.StreamAttribution(h), assign.Level)
}

// --- Workloads (benchmarks) ---

// Metrics aggregates a workload run.
type Metrics = workload.Metrics

// ScanResult reports the snapshot-scan-vs-hot-writers scenario.
type ScanResult = workload.ScanResult

// Workload generators (see internal/workload).
var (
	LoadAccounts      = workload.LoadAccounts
	TransferWorkload  = workload.Transfer
	ReadersVsWriters  = workload.ReadersVsWriters
	HotspotCounter    = workload.HotspotCounter
	LongRunningUpdate = workload.LongRunningUpdater
	TotalBalance      = workload.TotalBalance
)

// Deterministic-interleaving workloads (see internal/workload/driver.go):
// barrier-synchronized sessions whose read–write overlap is guaranteed on
// any GOMAXPROCS, making contention outcomes exact instead of
// scheduler-dependent.
var (
	HotspotLockstep          = workload.HotspotCounterLockstep
	SnapshotScanVsHotWriters = workload.SnapshotScanVsHotWriters
	SkewedTransferWorkload   = workload.SkewedTransfer
	BatchIncrementWorkload   = workload.BatchIncrement
)

// Lockstep locking-engine scenarios (see internal/workload/locking.go):
// schedule-runner-driven workloads whose blocking, deadlock-victim and
// phantom-prevention outcomes are exact at every lock-table stripe count,
// on any GOMAXPROCS.
var (
	ReadLockFanInWorkload   = workload.ReadLockFanIn
	UpgradeStormWorkload    = workload.UpgradeDeadlockStorm
	PredicateVsItemWorkload = workload.PredicateVsItemMix
)

// FanInResult reports the contended read-lock fan-in scenario.
type FanInResult = workload.FanInResult

// PredItemResult reports the predicate-vs-item writer mix scenario.
type PredItemResult = workload.PredItemResult

// LockStats is the lock manager's counter snapshot (grants, waits,
// deadlocks, upgrades, per-stripe contention).
type LockStats = lock.Stats

// Barrier is the reusable rendezvous behind the deterministic driver.
type Barrier = schedule.Barrier

// NewBarrier returns a barrier for n parties.
var NewBarrier = schedule.NewBarrier

// SnapshotTS re-exports the multiversion timestamp type for AsOf queries.
type SnapshotTS = mv.TS
