package engine

import (
	"errors"
	"fmt"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/history"
	"isolevel/internal/predicate"
)

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{
		Degree0:           "DEGREE 0",
		ReadUncommitted:   "READ UNCOMMITTED",
		ReadCommitted:     "READ COMMITTED",
		CursorStability:   "CURSOR STABILITY",
		RepeatableRead:    "REPEATABLE READ",
		Serializable:      "SERIALIZABLE",
		SnapshotIsolation: "SNAPSHOT ISOLATION",
		ReadConsistency:   "READ CONSISTENCY",
	}
	for lvl, s := range want {
		if lvl.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(lvl), lvl.String(), s)
		}
	}
	if len(Levels) != len(want) {
		t.Fatalf("Levels has %d entries", len(Levels))
	}
}

func TestIsPrevention(t *testing.T) {
	for _, err := range []error{ErrDeadlock, ErrWriteConflict, ErrRowChanged} {
		if !IsPrevention(err) {
			t.Errorf("%v should be a prevention error", err)
		}
		if !IsPrevention(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("wrapped %v should be a prevention error", err)
		}
	}
	for _, err := range []error{ErrNotFound, ErrTxDone, ErrUnsupported, errors.New("other")} {
		if IsPrevention(err) {
			t.Errorf("%v should not be a prevention error", err)
		}
	}
}

// TestIsRetryable: the retryable set is exactly the prevention set —
// scheduler-initiated aborts a client should retry — matched through
// wrapping, and nothing else (nil included).
func TestIsRetryable(t *testing.T) {
	for _, err := range []error{ErrDeadlock, ErrWriteConflict, ErrRowChanged} {
		if !IsRetryable(err) {
			t.Errorf("%v should be retryable", err)
		}
		if !IsRetryable(fmt.Errorf("T7: %w", err)) {
			t.Errorf("wrapped %v should be retryable", err)
		}
	}
	for _, err := range []error{nil, ErrNotFound, ErrTxDone, ErrNoCursor, ErrUnsupported, errors.New("other")} {
		if IsRetryable(err) {
			t.Errorf("%v should not be retryable", err)
		}
	}
}

func TestRecorderDisabledByDefault(t *testing.T) {
	r := NewRecorder()
	r.Record(history.Op{Tx: 1, Kind: history.Read, Item: "x", Version: -1})
	if len(r.History()) != 0 {
		t.Fatal("disabled recorder captured an op")
	}
	if r.Enabled() {
		t.Fatal("recorder should start disabled")
	}
}

func TestRecorderCapturesAndResets(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.Record(history.Op{Tx: 1, Kind: history.Read, Item: "x", Version: -1})
	r.Record(history.Op{Tx: 1, Kind: history.Commit, Version: -1})
	h := r.History()
	if len(h) != 2 || h[0].Kind != history.Read {
		t.Fatalf("history = %v", h)
	}
	r.Reset()
	if len(r.History()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestRecorderAnnotatesWritesWithPredicates(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	p := predicate.MustParse("active == 1")
	r.RecordPredRead(1, p)
	// A write whose after-image matches the registered predicate.
	r.RecordWrite(2, "e9", nil, data.NewRow(map[string]int64{"active": 1}))
	// A write that does not match.
	r.RecordWrite(2, "e8", nil, data.NewRow(map[string]int64{"active": 0}))
	h := r.History()
	if len(h) != 3 {
		t.Fatalf("history = %v", h)
	}
	if h[0].Kind != history.PredRead || h[0].Preds[0] != p.String() {
		t.Fatalf("pred read op = %+v", h[0])
	}
	if !h[1].InPred(p.String()) {
		t.Fatalf("matching write not annotated: %+v", h[1])
	}
	if h[2].InPred(p.String()) {
		t.Fatalf("non-matching write annotated: %+v", h[2])
	}
}

func TestRecorderHistoryIsCopy(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.Record(history.Op{Tx: 1, Kind: history.Read, Item: "x", Version: -1})
	h := r.History()
	h[0].Tx = 99
	if r.History()[0].Tx != 1 {
		t.Fatal("History() leaked internal storage")
	}
}

// GetVal/PutVal against a minimal fake Tx.
type fakeTx struct {
	Tx
	rows map[data.Key]data.Row
}

func (f *fakeTx) Get(k data.Key) (data.Row, error) {
	r, ok := f.rows[k]
	if !ok {
		return nil, ErrNotFound
	}
	return r, nil
}

func (f *fakeTx) Put(k data.Key, r data.Row) error {
	f.rows[k] = r
	return nil
}

func TestGetValPutVal(t *testing.T) {
	tx := &fakeTx{rows: map[data.Key]data.Row{}}
	if err := PutVal(tx, "x", 7); err != nil {
		t.Fatal(err)
	}
	v, err := GetVal(tx, "x")
	if err != nil || v != 7 {
		t.Fatalf("GetVal = %d, %v", v, err)
	}
	if _, err := GetVal(tx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}
