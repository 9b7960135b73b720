package main

import (
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/workload"
)

// The live_fragments gauge on /metrics follows a keyrange engine's range
// locks: nonzero while a SERIALIZABLE scan holds its fragments, zero once
// it commits. A multiversion engine keeps its mv_* gauges beside it.
func TestEngineGaugesCountLiveFragments(t *testing.T) {
	db := locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
	workload.LoadAccounts(db, 8, 100)
	if n := engineGauges(db)["live_fragments"]; n != 0 {
		t.Fatalf("idle engine: live_fragments = %d, want 0", n)
	}
	tx, err := db.Begin(engine.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SelectRange(tx, workload.AccountKey(0), workload.AccountKey(4)); err != nil {
		t.Fatal(err)
	}
	if n := engineGauges(db)["live_fragments"]; n == 0 {
		t.Error("scan open: live_fragments = 0, want its fragments counted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := engineGauges(db)["live_fragments"]; n != 0 {
		t.Errorf("scan committed: live_fragments = %d, want 0", n)
	}
	g := engineGauges(mvcc.NewDB())
	if _, ok := g["mv_horizon_lag"]; !ok {
		t.Errorf("multiversion engine gauges %v lack mv_horizon_lag", g)
	}
}
