package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

var update = flag.Bool("update", false, "rewrite testdata/check.golden from the current output")

// `isolevel check -f` over every corpus file, byte for byte. Regenerate
// with `go test ./cmd/isolevel -run TestCheckGolden -update` and review
// the diff: it is the change in what check prints.
func TestCheckGolden(t *testing.T) {
	files, err := filepath.Glob("../../internal/exerciser/testdata/corpus/*.hist")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	var buf bytes.Buffer
	for _, path := range files {
		fmt.Fprintf(&buf, "### %s\n", filepath.Base(path))
		if err := checkFile(&buf, path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	golden := filepath.Join("testdata", "check.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("check output differs from %s; rerun with -update and review the diff", golden)
	}
}

// An -engines name that no family has is an error naming the families,
// uniform and mixed: a typo or a retired family name must not run a
// narrower campaign and print "ok".
func TestFuzzUnknownEngineIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-engines", "locking,snapshot", "-n", "1"},
		{"-engines", "mv,oraclerc", "-mixed", "-n", "1"},
	} {
		err := cmdFuzz(args)
		if err == nil {
			t.Fatalf("fuzz %v: accepted an unknown engine family", args)
		}
		if msg := err.Error(); !strings.Contains(msg, "unknown engine family") || !strings.Contains(msg, "locking, keyrange, mv") {
			t.Errorf("fuzz %v: error %q does not name the unknown family and the valid ones", args, msg)
		}
	}
}
