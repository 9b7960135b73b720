package exerciser

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/phenomena"
)

// --- Generator determinism. ---

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams()
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, p)
		b := Generate(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, a.History(), b.History())
		}
	}
	if reflect.DeepEqual(Generate(1, p), Generate(2, p)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGeneratedHistoryWellFormed(t *testing.T) {
	p := DefaultParams()
	for seed := int64(1); seed <= 50; seed++ {
		h := Generate(seed, p).History()
		if err := h.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, h)
		}
		// The intended history round-trips through the parser, so shrinker
		// output and corpus entries replay via `isolevel check`.
		if _, err := history.Parse(h.String()); err != nil {
			t.Fatalf("seed %d: intended history does not re-parse: %v\n%s", seed, err, h)
		}
	}
}

// --- Campaign determinism and the oracle. ---

func smallOpts() Options {
	return Options{Seed: 1, N: 12, Params: DefaultParams(), Workers: 1}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("serial campaigns differ:\n%s\n---\n%s", a, b)
	}
}

func TestCampaignWorkerCountInvariant(t *testing.T) {
	serial, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts()
	opts.Workers = 3
	par, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Worker count changes wall-clock only: the full report — tallies
	// included — is byte-for-byte identical (per-schedule replays are
	// deterministic and aggregation is index-ordered).
	if serial.String() != par.String() {
		t.Fatalf("reports differ across worker counts:\n%s\n---\n%s", serial, par)
	}
}

// TestOracleHolds is the in-tree slice of the acceptance criterion: no
// engine family at any level admits a phenomenon its Table 4 row forbids.
func TestOracleHolds(t *testing.T) {
	opts := Options{Seed: 1, N: 40, Params: DefaultParams()}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() != 0 {
		t.Fatalf("oracle violations on correct engines:\n%s%s", rep, rep.Detail())
	}
	if rep.Divergences != 0 {
		t.Fatalf("cross-family divergences:\n%s%s", rep, rep.Detail())
	}
	// The campaign must actually exercise the interesting cells: the weak
	// levels should witness the anomalies their rows allow.
	want := map[string]phenomena.ID{
		"DEGREE 0":         phenomena.P0,
		"READ UNCOMMITTED": phenomena.P1,
		"READ COMMITTED":   phenomena.P2,
	}
	for _, st := range rep.Stats {
		if id, ok := want[st.Level.String()]; ok && !st.Phenomena[id] {
			t.Errorf("%s: expected the campaign to observe %s (profile %s)", st.Level, id, idsString(st.Phenomena))
		}
	}
}

// TestCrossLevelOracle manufactures findings from correct engines: READ
// COMMITTED traces judged by the REPEATABLE READ contract must violate,
// and the shrinker must minimize a finding to a replayable history that
// still exhibits the violated phenomenon.
func TestCrossLevelOracle(t *testing.T) {
	rr := engine.RepeatableRead
	opts := Options{
		Seed: 1, N: 10,
		Params:      DefaultParams(),
		Families:    []string{"locking"},
		Levels:      []engine.Level{engine.ReadCommitted},
		OracleLevel: &rr,
		Shrink:      true,
		MaxShrink:   3,
	}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() == 0 {
		t.Fatal("READ COMMITTED traces passed the REPEATABLE READ oracle — the fuzzer cannot detect level violations")
	}
	shrunk := 0
	for _, f := range rep.Findings {
		if f.Minimized == nil {
			continue
		}
		shrunk++
		orig := Generate(f.SchedSeed, opts.Params)
		if len(f.Minimized) >= len(orig.Ops) {
			t.Errorf("finding %d: shrinker did not shrink (%d ops -> %d)", f.Index, len(orig.Ops), len(f.Minimized))
		}
		// The minimized history replays: it parses, and it still exhibits
		// the violated phenomenon.
		h, err := history.Parse(f.Minimized.String())
		if err != nil {
			t.Errorf("finding %d: minimized history does not parse: %v", f.Index, err)
			continue
		}
		if len(f.IDs) > 0 {
			id := f.IDs[0]
			if !phenomena.Exhibits(id, h) {
				t.Errorf("finding %d: minimized history %s does not exhibit %s", f.Index, h, id)
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("no finding was shrunk")
	}
}

// TestSnapshotNormalization replays the paper's write-skew shape on the
// snapshot engine and checks the mapped trace shows A5B but none of SI's
// forbidden phenomena.
func TestSnapshotNormalization(t *testing.T) {
	s := &Schedule{
		Seed:   0,
		Params: Params{Txs: 2, Items: 2, OpsPerTx: 2, Mix: DefaultMix()},
		Ops: []SOp{
			{Txn: 1, Kind: OpRead, Item: "x"},
			{Txn: 2, Kind: OpRead, Item: "y"},
			{Txn: 1, Kind: OpWrite, Item: "y", Value: 1001},
			{Txn: 2, Kind: OpWrite, Item: "x", Value: 1002},
			{Txn: 1, Kind: OpCommit},
			{Txn: 2, Kind: OpCommit},
		},
	}
	mv, _ := familyByName("mv")
	rr, err := RunOne(s, mv, UniformAssign(engine.SnapshotIsolation), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Committed[1] || !rr.Committed[2] {
		t.Fatalf("disjoint write sets must both commit under SI: %v", rr.Aborted)
	}
	if !rr.Profile[phenomena.A5B] {
		t.Errorf("mapped SI trace lacks write skew: %s", rr.Normalized)
	}
	if fs := Check(s, rr, NewOracle(), UniformAssign(engine.SnapshotIsolation)); len(fs) != 0 {
		t.Errorf("write skew is allowed at SI, got findings: %v", fs)
	}
	// Write skew is the canonical non-serializable SI execution.
	if deps.Serializable(rr.Normalized) {
		t.Errorf("mapped write-skew history should not be serializable: %s", rr.Normalized)
	}
}

// TestSnapshotReadCertification checks the value-level oracle both ways:
// a correct SI run passes, and a doctored read — the value of an older
// version than the snapshot holds — is flagged as an mv-read finding
// even though it leaves the mapped-trace patterns untouched.
func TestSnapshotReadCertification(t *testing.T) {
	s := &Schedule{
		Params: Params{Txs: 2, Items: 1, OpsPerTx: 2, Mix: DefaultMix()},
		Ops: []SOp{
			{Txn: 1, Kind: OpWrite, Item: "x", Value: 1001},
			{Txn: 1, Kind: OpCommit},
			{Txn: 2, Kind: OpRead, Item: "x"},
			{Txn: 2, Kind: OpCommit},
		},
	}
	mv, _ := familyByName("mv")
	rr, err := RunOne(s, mv, UniformAssign(engine.SnapshotIsolation), 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkSnapshotReads(s, rr); msg != "" {
		t.Fatalf("correct run flagged: %s", msg)
	}
	// Doctor T2's read to have returned the initial value despite T1's
	// earlier commit — a stale-snapshot read-path bug.
	for i := range rr.mvReads {
		if rr.mvReads[i].tx == 2 {
			rr.mvReads[i].val = InitialValue(0)
		}
	}
	if msg := checkSnapshotReads(s, rr); msg == "" {
		t.Fatal("stale snapshot read not flagged")
	}
}

// --- Corpus replay against each file's expectations. ---

func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.hist"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var expect, wantCharged []string
			wantSer := ""
			var levels string
			var h history.History
			for _, line := range strings.Split(string(raw), "\n") {
				line = strings.TrimSpace(line)
				switch {
				case strings.HasPrefix(line, "# expect:"):
					expect = strings.Fields(strings.TrimPrefix(line, "# expect:"))
				case strings.HasPrefix(line, "# levels:"):
					levels = strings.TrimSpace(strings.TrimPrefix(line, "# levels:"))
				case strings.HasPrefix(line, "# charged:"):
					wantCharged = strings.Fields(strings.TrimPrefix(line, "# charged:"))
					if len(wantCharged) == 1 && wantCharged[0] == "none" {
						wantCharged = []string{}
					}
				case strings.HasPrefix(line, "# serializable:"):
					wantSer = strings.TrimSpace(strings.TrimPrefix(line, "# serializable:"))
				case line == "" || strings.HasPrefix(line, "#"):
				default:
					if h != nil {
						t.Fatalf("multiple histories in %s", path)
					}
					h, err = history.Parse(line)
					if err != nil {
						t.Fatalf("parse: %v", err)
					}
				}
			}
			if h == nil {
				t.Fatal("no history line")
			}
			want := map[phenomena.ID]bool{}
			for _, id := range expect {
				want[phenomena.ID(id)] = true
			}
			if got := phenomena.Profile(h); !reflect.DeepEqual(got, want) {
				t.Errorf("profile %v, want %v", sortedIDs(got), expect)
			}
			if wantSer != "" {
				got := "no"
				if deps.Serializable(h) {
					got = "yes"
				}
				if got != wantSer {
					t.Errorf("serializable = %s, want %s", got, wantSer)
				}
			}
			// Annotated files carry a per-transaction level assignment and
			// the exact charges the per-transaction oracle must produce
			// ("# charged: none" pins a negative: the phenomena are present
			// but nobody whose level forbids them is validly charged).
			if levels != "" {
				assign, err := ParseAssign(levels)
				if err != nil {
					t.Fatalf("levels annotation: %v", err)
				}
				if wantCharged == nil {
					t.Fatal("annotated corpus file lacks a # charged: line")
				}
				got := []string{}
				for _, ch := range NewOracle().Charges(phenomena.Attribution(h), assign.Level) {
					got = append(got, fmt.Sprintf("T%d:%s", ch.Victim, ch.ID))
				}
				if !reflect.DeepEqual(got, wantCharged) {
					t.Errorf("charges = %v, want %v", got, wantCharged)
				}
			}
		})
	}
}

func sortedIDs(set map[phenomena.ID]bool) []string {
	var out []string
	for id := range set {
		out = append(out, string(id))
	}
	sort.Strings(out)
	return out
}

// --- Shrinker unit behavior. ---

func TestShrinkIsDeterministicAndMinimal(t *testing.T) {
	p := DefaultParams()
	s := Generate(3, p)
	// Property: the schedule still contains a write by transaction 1.
	keep := func(c *Schedule) bool {
		for _, op := range c.Ops {
			if op.Txn == 1 && (op.Kind == OpWrite || op.Kind == OpCurWrite) {
				return true
			}
		}
		return false
	}
	if !keep(s) {
		t.Skip("seed 3 has no write by T1")
	}
	a := Shrink(s, keep)
	b := Shrink(s, keep)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("shrinking is not deterministic")
	}
	// 1-minimal for the property: a write op plus its terminal.
	nonTerm := 0
	for _, op := range a.Ops {
		if op.Kind != OpCommit && op.Kind != OpAbort {
			nonTerm++
		}
	}
	if nonTerm != 1 {
		t.Errorf("expected a single surviving non-terminal op, got %d: %s", nonTerm, a.History())
	}
}
