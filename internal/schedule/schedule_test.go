package schedule

import (
	"errors"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/phenomena"
)

// Step helpers shared by tests (the anomalies package builds its own).

func get(txn int, key data.Key) Step {
	return OpStep(txn, "r"+itoa(txn)+"["+string(key)+"]", func(c *Ctx) (any, error) {
		v, err := engine.GetVal(c.Tx, key)
		if err != nil {
			return nil, err
		}
		c.Vars["last:"+string(key)] = v
		return v, nil
	})
}

func put(txn int, key data.Key, v int64) Step {
	return OpStep(txn, "w"+itoa(txn)+"["+string(key)+"]", func(c *Ctx) (any, error) {
		return nil, engine.PutVal(c.Tx, key, v)
	})
}

func itoa(n int) string { return string(rune('0' + n)) }

func loadScalars(db engine.DB, kv map[string]int64) {
	var ts []data.Tuple
	for k, v := range kv {
		ts = append(ts, data.Tuple{Key: data.Key(k), Row: data.Scalar(v)})
	}
	db.Load(ts...)
}

// A serial script runs to completion with no blocking.
func TestSerialScript(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 1})
	res, err := Run(db, Options{Level: engine.Serializable}, []Step{
		get(1, "x"),
		put(1, "x", 2),
		CommitStep(1),
		get(2, "x"),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnyBlocked() {
		t.Fatalf("serial script blocked: %+v", res.Steps)
	}
	if !res.Committed[1] || !res.Committed[2] {
		t.Fatal("both txns should commit")
	}
	r2, _ := res.StepByName("r2[x]")
	if r2.Value.(int64) != 2 {
		t.Fatalf("T2 read %v", r2.Value)
	}
}

// Dirty read observed at READ UNCOMMITTED, with no blocking.
func TestDirtyReadScript(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{Level: engine.ReadUncommitted}, []Step{
		put(1, "x", 101),
		get(2, "x"),
		AbortStep(1),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := res.StepByName("r2[x]")
	if r2.Blocked {
		t.Fatal("dirty read must not block at RU")
	}
	if r2.Value.(int64) != 101 {
		t.Fatalf("dirty read saw %v, want 101", r2.Value)
	}
}

// The same script at READ COMMITTED: the read blocks until T1 aborts, then
// sees the restored value. The runner must detect the block via the
// observer and keep going.
func TestBlockedReadDetected(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{Level: engine.ReadCommitted}, []Step{
		put(1, "x", 101),
		get(2, "x"),
		AbortStep(1),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := res.StepByName("r2[x]")
	if !r2.Blocked {
		t.Fatal("read of dirty row must block at RC")
	}
	if r2.Value.(int64) != 0 {
		t.Fatalf("read %v after abort, want 0", r2.Value)
	}
	if !res.Committed[2] {
		t.Fatal("T2 should commit")
	}
}

// Deadlock: the victim's remaining steps are skipped and it is auto-aborted.
func TestDeadlockAutoAbort(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 100})
	res, err := Run(db, Options{Level: engine.RepeatableRead}, []Step{
		get(1, "x"),
		get(2, "x"),
		put(2, "x", 120), // T2's upgrade waits on T1's S
		put(1, "x", 130), // T1's upgrade closes the cycle: T1 is the victim
		CommitStep(2),
		CommitStep(1), // skipped: T1 was rolled back
	})
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := res.StepByName("w1[x]")
	if !errors.Is(w1.Err, engine.ErrDeadlock) {
		t.Fatalf("w1[x] err = %v, want deadlock", w1.Err)
	}
	if !res.AutoAborted[1] || !res.Aborted[1] {
		t.Fatal("T1 should be auto-aborted")
	}
	c1, _ := res.StepByName("c1")
	if !c1.Skipped {
		t.Fatal("c1 should be skipped after auto-abort")
	}
	if !res.Committed[2] {
		t.Fatal("T2 should commit")
	}
	if got := db.ReadCommittedRow("x").Val(); got != 120 {
		t.Fatalf("x = %d, want T2's 120", got)
	}
}

// First-committer-wins surfaces on the commit step under SI.
func TestSICommitConflict(t *testing.T) {
	db := mvcc.NewDB()
	loadScalars(db, map[string]int64{"x": 100})
	res, err := Run(db, Options{Level: engine.SnapshotIsolation}, []Step{
		get(1, "x"),
		get(2, "x"),
		put(2, "x", 120),
		CommitStep(2),
		put(1, "x", 130),
		CommitStep(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := res.StepByName("c1")
	if !errors.Is(c1.Err, engine.ErrWriteConflict) {
		t.Fatalf("c1 err = %v, want write conflict", c1.Err)
	}
	if res.Committed[1] || !res.Aborted[1] {
		t.Fatal("T1 must be recorded aborted")
	}
	if !res.Committed[2] {
		t.Fatal("T2 must commit")
	}
}

// Unterminated transactions are aborted in the drain, releasing waiters.
func TestDrainAbortsOpenTxns(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{Level: engine.Serializable}, []Step{
		put(1, "x", 1),
		get(2, "x"), // blocks on T1's X lock; script ends here
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := res.StepByName("r2[x]")
	if !r2.Blocked {
		t.Fatal("r2 should have blocked")
	}
	if !res.Aborted[1] || !res.Aborted[2] {
		t.Fatal("both open txns should be drained by abort")
	}
	// T1 aborted, so its write was rolled back; T2 read 0.
	if r2.Value.(int64) != 0 {
		t.Fatalf("r2 read %v", r2.Value)
	}
}

// Steps queued behind a blocked step run in order and inherit Blocked.
func TestQueuedBehindBlocked(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0, "y": 0})
	res, err := Run(db, Options{Level: engine.Serializable}, []Step{
		put(1, "x", 1),
		get(2, "x"),    // blocks
		put(2, "y", 2), // queued behind the blocked read
		CommitStep(1),  // unblocks T2
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := res.StepByName("w2[y]")
	if !w2.Blocked {
		t.Fatal("queued step should inherit Blocked")
	}
	if w2.Err != nil {
		t.Fatal(w2.Err)
	}
	if !res.Committed[1] || !res.Committed[2] {
		t.Fatalf("commits: %v", res.Committed)
	}
	if db.ReadCommittedRow("y").Val() != 2 {
		t.Fatal("queued write lost")
	}
}

// Per-transaction levels: a SERIALIZABLE reader alongside a READ
// UNCOMMITTED writer on a locking engine.
func TestPerTxLevels(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{
		Level: engine.Serializable,
		PerTx: map[int]engine.Level{2: engine.ReadUncommitted},
	}, []Step{
		put(1, "x", 5),
		get(2, "x"), // RU: no read lock, sees dirty 5
		CommitStep(1),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := res.StepByName("r2[x]")
	if r2.Blocked || r2.Value.(int64) != 5 {
		t.Fatalf("RU reader: blocked=%v v=%v", r2.Blocked, r2.Value)
	}
}

// The recorded history is remapped to script transaction numbers and
// classified by the same matchers as the paper's histories.
func TestRecordedHistoryRemap(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{Level: engine.ReadUncommitted}, []Step{
		put(1, "x", 101),
		get(2, "x"),
		CommitStep(1),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no recorded history")
	}
	if !phenomena.Exhibits(phenomena.P1, res.History) {
		t.Fatalf("recorded history should exhibit P1: %s", res.History)
	}
	for _, op := range res.History {
		if op.Tx != 1 && op.Tx != 2 {
			t.Fatalf("unmapped tx id in %s", res.History)
		}
	}
}

// Read Consistency engine also works under the runner (write locks +
// observer).
func TestOracleRCUnderRunner(t *testing.T) {
	db := mvcc.NewDB()
	loadScalars(db, map[string]int64{"x": 100})
	res, err := Run(db, Options{Level: engine.ReadConsistency}, []Step{
		put(1, "x", 120),
		put(2, "x", 130), // blocks on T1's write lock (first-writer-wins)
		CommitStep(1),
		CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := res.StepByName("w2[x]")
	if !w2.Blocked {
		t.Fatal("second writer should block")
	}
	if !res.Committed[1] || !res.Committed[2] {
		t.Fatal("both should commit (no FCW abort at Read Consistency)")
	}
	if got := db.ReadCommittedRow("x").Val(); got != 130 {
		t.Fatalf("x = %d", got)
	}
}

func TestResultHelpers(t *testing.T) {
	db := locking.NewDB()
	loadScalars(db, map[string]int64{"x": 0})
	res, err := Run(db, Options{Level: engine.Serializable}, []Step{
		get(1, "x"),
		CommitStep(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.StepByName("r1[x]"); !ok {
		t.Fatal("StepByName miss")
	}
	if _, ok := res.StepByName("nope"); ok {
		t.Fatal("StepByName false positive")
	}
	if len(res.Errs()) != 0 {
		t.Fatalf("errs = %v", res.Errs())
	}
}

func TestCtxHelpers(t *testing.T) {
	c := &Ctx{Vars: map[string]any{"n": int64(7)}}
	if c.Int("n") != 7 || c.Int("missing") != 0 {
		t.Fatal("Ctx.Int")
	}
	if c.Cursor("nope") != nil {
		t.Fatal("Ctx.Cursor on missing name")
	}
}
