package isolevel_test

import (
	"errors"
	"testing"

	isolevel "isolevel"
)

// The doc.go quick start, as a test.
func TestQuickStart(t *testing.T) {
	db := isolevel.NewMVDB()
	db.Load(isolevel.Scalar("x", 50), isolevel.Scalar("y", 50))
	tx, err := db.Begin(isolevel.SnapshotIsolation)
	if err != nil {
		t.Fatal(err)
	}
	v, err := isolevel.GetVal(tx, "x")
	if err != nil || v != 50 {
		t.Fatalf("read %d, %v", v, err)
	}
	if err := isolevel.PutVal(tx, "y", v+40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.ReadCommittedRow("y").Val(); got != 90 {
		t.Fatalf("y = %d", got)
	}
}

func TestFacadeHistoryAnalysis(t *testing.T) {
	h := isolevel.MustHistory("w1[x] r2[x] c1 c2")
	if !isolevel.Exhibits("P1", h) {
		t.Fatal("P1 witness not detected through facade")
	}
	if isolevel.ConflictSerializable(isolevel.H1()) {
		t.Fatal("H1 should not be serializable")
	}
	if order := isolevel.EquivalentSerialOrder(isolevel.H1SISV()); len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	prof := isolevel.PhenomenaProfile(isolevel.H5())
	if !prof["A5B"] || prof["A1"] {
		t.Fatalf("H5 profile = %v", prof)
	}
}

func TestFacadeEngines(t *testing.T) {
	for _, lvl := range isolevel.Levels {
		db := isolevel.NewDBFor(lvl)
		db.Load(isolevel.Scalar("x", 1))
		tx, err := db.Begin(lvl)
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		v, err := isolevel.GetVal(tx, "x")
		if err != nil || v != 1 {
			t.Fatalf("%s: read %d, %v", lvl, v, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
	}
}

func TestFacadeScenario(t *testing.T) {
	var writeSkew isolevel.Scenario
	for _, sc := range isolevel.Scenarios() {
		if sc.ID == "A5B" && sc.Variant == "" {
			writeSkew = sc
		}
	}
	out, err := isolevel.RunScenario(writeSkew, isolevel.SnapshotIsolation)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Anomaly {
		t.Fatal("write skew must occur under SI")
	}
	out, err = isolevel.RunScenario(writeSkew, isolevel.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if out.Anomaly {
		t.Fatal("write skew must be prevented at SERIALIZABLE")
	}
}

// A facade-level dirty-read script: the paper's P1 at READ UNCOMMITTED.
func TestFacadeSchedule(t *testing.T) {
	db := isolevel.NewLockingDB()
	db.Load(isolevel.Scalar("x", 0))
	res, err := isolevel.RunSchedule(db, isolevel.ReadUncommitted, []isolevel.Step{
		isolevel.OpStep(1, "w1[x=101]", func(c *isolevel.ScheduleCtx) (any, error) {
			return nil, isolevel.PutVal(c.Tx, "x", 101)
		}),
		isolevel.OpStep(2, "r2[x]", func(c *isolevel.ScheduleCtx) (any, error) {
			return isolevel.GetVal(c.Tx, "x")
		}),
		isolevel.AbortStep(1),
		isolevel.CommitStep(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r2, ok := res.StepByName("r2[x]")
	if !ok || r2.Value.(int64) != 101 {
		t.Fatalf("dirty read through facade: %+v", r2)
	}
	if !isolevel.Exhibits("A1", res.History) {
		t.Fatalf("recorded history should exhibit A1 (reader committed, writer aborted):\n%s", res.History)
	}
}

func TestFacadeTables(t *testing.T) {
	t1 := isolevel.Table1()
	if len(t1.Rows) != 4 {
		t.Fatalf("table1 rows = %d", len(t1.Rows))
	}
	t3 := isolevel.Table3()
	if len(t3.Rows) != 4 {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
}

func TestFacadeTable4AndFigure2(t *testing.T) {
	res, err := isolevel.Table4(isolevel.ReadCommitted, isolevel.SnapshotIsolation, isolevel.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[isolevel.SnapshotIsolation]["A5B"].Cell != isolevel.Possible {
		t.Fatal("SI A5B should be Possible")
	}
	h := isolevel.Figure2(res)
	if h.Rel[isolevel.ReadCommitted][isolevel.SnapshotIsolation].String() != "«" {
		t.Fatalf("RC vs SI = %s", h.Rel[isolevel.ReadCommitted][isolevel.SnapshotIsolation])
	}
}

func TestFacadeErrors(t *testing.T) {
	db := isolevel.NewLockingDB()
	if _, err := db.Begin(isolevel.SnapshotIsolation); !errors.Is(err, isolevel.ErrUnsupported) {
		t.Fatalf("got %v", err)
	}
	tx, _ := db.Begin(isolevel.Serializable)
	if _, err := isolevel.GetVal(tx, "missing"); !errors.Is(err, isolevel.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	_ = tx.Commit()
}

func TestFacadePredicate(t *testing.T) {
	p := isolevel.MustPredicate("active == 1")
	db := isolevel.NewLockingDB()
	db.Load(isolevel.Tuple{Key: "e1", Row: isolevel.NewRow(map[string]int64{"active": 1})})
	tx, _ := db.Begin(isolevel.Serializable)
	rows, err := tx.Select(p)
	if err != nil || len(rows) != 1 {
		t.Fatalf("select: %v, %v", rows, err)
	}
	_ = tx.Commit()
	if _, err := isolevel.ParsePredicate("bad =="); err == nil {
		t.Fatal("parse error expected")
	}
}

func TestFacadeMixedLevels(t *testing.T) {
	h := isolevel.MustHistory("w1[x] r2[x] c2 c1")
	assign, err := isolevel.ParseLevels("T1=RU T2=SER")
	if err != nil {
		t.Fatal(err)
	}
	charges := isolevel.JudgeHistory(h, assign)
	if len(charges) != 1 || charges[0].Victim != 2 || charges[0].ID != isolevel.PhenomenonID("P1") {
		t.Fatalf("charges = %v, want P1 charged to T2", charges)
	}
	// The same dirty read is excused when the writer runs below degree 1.
	weak, _ := isolevel.ParseLevels("T1=D0 T2=SER")
	if cs := isolevel.JudgeHistory(h, weak); len(cs) != 0 {
		t.Fatalf("D0 writer should excuse the reader, got %v", cs)
	}
	attr := isolevel.PhenomenaAttribution(h)
	if !attr[isolevel.PhenomenonID("P1")][isolevel.PhenomenonPair{A: 1, B: 2}] {
		t.Fatalf("attribution = %v", attr)
	}
	// A mixed fuzz mini-campaign through the facade.
	rep, err := isolevel.Fuzz(isolevel.FuzzOptions{Seed: 3, N: 4, Mixed: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() != 0 {
		t.Fatalf("mixed facade campaign violations:\n%s%s", rep, rep.Detail())
	}
}
