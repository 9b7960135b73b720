package exerciser

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/phenomena"
)

// --- Assignment plumbing. ---

func TestAssignRoundTrip(t *testing.T) {
	a := PerTxAssign(map[int]engine.Level{
		1: engine.Degree0, 2: engine.RepeatableRead, 3: engine.SnapshotIsolation, 4: engine.ReadConsistency,
	})
	ann := a.Annotation()
	if ann != "T1=D0 T2=RR T3=SI T4=ORC" {
		t.Fatalf("annotation = %q", ann)
	}
	b, err := ParseAssign(ann)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PerTx, b.PerTx) {
		t.Fatalf("round trip: %v != %v", a.PerTx, b.PerTx)
	}
	// Full names parse too, case-insensitively.
	c, err := ParseAssign("T1=SERIALIZABLE t2=rc")
	if err != nil {
		t.Fatal(err)
	}
	if c.Level(1) != engine.Serializable || c.Level(2) != engine.ReadCommitted {
		t.Fatalf("parsed %v", c.PerTx)
	}
	for _, bad := range []string{"", "T1", "T1=XX", "1=RR", "T1=RR T1=RC"} {
		if _, err := ParseAssign(bad); err == nil {
			t.Errorf("ParseAssign(%q) accepted", bad)
		}
	}
}

func TestMixedAssignDeterministic(t *testing.T) {
	fams := Families()
	for _, fam := range fams {
		a := MixedAssign(42, fam, 4)
		b := MixedAssign(42, fam, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: assignments differ across calls", fam.Name)
		}
		if len(a.PerTx) != 4 {
			t.Fatalf("%s: %d assignments, want 4", fam.Name, len(a.PerTx))
		}
		for txn, lvl := range a.PerTx {
			ok := false
			for _, l := range fam.Levels {
				if l == lvl {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("%s: T%d assigned %s, outside the family's set", fam.Name, txn, lvl)
			}
		}
	}
	// Different families draw different assignments from the same seed
	// (statistically: check a seed where they differ).
	if reflect.DeepEqual(MixedAssign(42, fams[0], 4), MixedAssign(42, fams[1], 4)) &&
		reflect.DeepEqual(MixedAssign(43, fams[0], 4), MixedAssign(43, fams[1], 4)) {
		t.Fatal("family name does not split the assignment stream")
	}
}

// --- The per-transaction oracle's charging rules. ---

func TestPerTxOracleCharges(t *testing.T) {
	o := NewOracle()
	cases := []struct {
		name   string
		hist   string
		levels string
		want   []string // "Tn:ID" violations, in emission order
	}{
		// H1's dirty read charged to a SERIALIZABLE reader: violation.
		{"p1-strong-victim", "w1[x] r2[x] c2 c1", "T1=RU T2=SER", []string{"T2:P1"}},
		// Same pattern, reader at READ UNCOMMITTED: allowed.
		{"p1-weak-victim", "w1[x] r2[x] c2 c1", "T1=RU T2=RU", nil},
		// Degree 0 writer excuses the locked reader: the reader's own
		// protocol cannot prevent reading a write whose lock was already
		// dropped ([GLPT]'s "writers at least degree 1" assumption).
		{"p1-d0-writer-excuse", "w1[x] r2[x] c2 a1", "T1=D0 T2=RR", nil},
		// ... but a long-write-lock writer does not: strict form included.
		{"a1-charged", "w1[x] r2[x] c2 a1", "T1=RU T2=RR", []string{"T2:P1", "T2:A1"}},
		// P0 charged to the overwritten first writer.
		{"p0-victim-first-writer", "w1[x] w2[x] c1 c2", "T1=RU T2=D0", []string{"T1:P0"}},
		{"p0-d0-victim", "w1[x] w2[x] c1 c2", "T1=D0 T2=SER", nil},
		// P2 charged to the reader; the writer's level is irrelevant.
		{"p2-rr-victim", "r1[x] w2[x] c2 c1", "T1=RR T2=D0", []string{"T1:P2"}},
		{"p2-weak-victim", "r1[x] w2[x] c2 c1", "T1=D0 T2=RR", nil},
		// Lost update charged to the read-modify-write committer. (The
		// literal history also exhibits P0 — T1 overwrites T2's
		// uncommitted write — charged to T2, the overwritten writer.)
		{"p4-victim", "r1[x] w2[x] w1[x] c1 c2", "T1=RR T2=RC", []string{"T2:P0", "T1:P2", "T1:P4"}},
		{"p4-rc-victim", "r1[x] w2[x] w1[x] c1 c2", "T1=RC T2=RR", []string{"T2:P0"}},
		// Write skew needs both participants to forbid it: one strong
		// transaction mixed with a weak one legitimately exhibits the
		// pattern (the weak side's unlocked read is the enabler, and the
		// embedded P2 against it is equally allowed).
		{"a5b-one-sided", "r1[x] r2[y] w1[y] c1 w2[x] c2", "T1=SER T2=RU", nil},
		{"a5b-both-ser", "r1[x] r2[y] w1[y] c1 w2[x] c2", "T1=SER T2=SER", []string{"T2:P2", "T1:A5B"}},
		// Phantom charged to the predicate reader.
		{"p3-ser-victim", "r1[P] w2[y in P] c2 c1", "T1=SER T2=D0", []string{"T1:P3"}},
		{"p3-rr-victim", "r1[P] w2[y in P] c2 c1", "T1=RR T2=SER", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := history.MustParse(c.hist)
			assign, err := ParseAssign(c.levels)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, ch := range o.Charges(phenomena.Attribution(h), assign.Level) {
				got = append(got, "T"+strconv.Itoa(ch.Victim)+":"+string(ch.ID))
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("charges = %v, want %v", got, c.want)
			}
		})
	}
}

// TestUniformChargesMatchOldOracle: with a uniform assignment, the
// per-transaction oracle must flag exactly the identifiers the old
// whole-history oracle flagged (forbidden ∩ profile), on every corpus
// shape and a swath of generated histories.
func TestUniformChargesMatchOldOracle(t *testing.T) {
	o := NewOracle()
	p := DefaultParams()
	for _, lvl := range engine.Levels {
		forbidden := o.Forbidden(lvl)
		for seed := int64(1); seed <= 60; seed++ {
			h := Generate(seed, p).History()
			attr := phenomena.Attribution(h)
			want := map[phenomena.ID]bool{}
			for id := range attr {
				if forbidden[id] {
					want[id] = true
				}
			}
			got := map[phenomena.ID]bool{}
			for _, ch := range o.Charges(attr, UniformAssign(lvl).Level) {
				got[ch.ID] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: per-tx %v != whole-history %v\n%s", lvl, seed, got, want, h)
			}
		}
	}
}

// --- Mixed campaigns end to end. ---

func TestMixedOracleHolds(t *testing.T) {
	opts := Options{Seed: 1, N: 40, Params: DefaultParams(), Mixed: true}
	rep, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() != 0 {
		t.Fatalf("mixed oracle violations on correct engines:\n%s%s", rep, rep.Detail())
	}
	if len(rep.Stats) != 3 {
		t.Fatalf("mixed campaign cells = %d, want locking + keyrange + mv", len(rep.Stats))
	}
	for _, st := range rep.Stats {
		if !st.Mixed || st.Runs != opts.N {
			t.Errorf("cell %s: mixed=%v runs=%d", st.Family, st.Mixed, st.Runs)
		}
		if len(st.Phenomena) == 0 {
			t.Errorf("cell %s: no phenomena observed — mixed runs are not exercising anything", st.Family)
		}
	}
}

func TestMixedCampaignWorkerInvariant(t *testing.T) {
	base := Options{Seed: 5, N: 16, Params: DefaultParams(), Mixed: true}
	serial, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 3
	rep, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != rep.String() {
		t.Fatalf("mixed reports differ across worker counts:\n%s\n---\n%s", serial, rep)
	}
}

// TestMixedMVWriteSkew: the unified mv family runs an SI and an RC
// transaction through the write-skew interleaving on one store — both
// commit (disjoint write sets: FCW passes, write locks don't collide),
// the mapped trace exhibits A5B, and the per-transaction oracle allows it
// (neither SI nor RC forbids write skew).
func TestMixedMVWriteSkew(t *testing.T) {
	s := &Schedule{
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
	assign := PerTxAssign(map[int]engine.Level{1: engine.SnapshotIsolation, 2: engine.ReadConsistency})
	rr, err := RunOne(s, mv, assign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Committed[1] || !rr.Committed[2] {
		t.Fatalf("disjoint write sets must both commit: aborted %v", rr.Aborted)
	}
	if !rr.Profile[phenomena.A5B] {
		t.Errorf("mapped mixed trace lacks write skew: %s", rr.Normalized)
	}
	if len(rr.MVTxns) != 1 || rr.MVTxns[0].Tx != 1 {
		t.Errorf("MVTxns should hold exactly the SI transaction: %v", rr.MVTxns)
	}
	if fs := Check(s, rr, NewOracle(), assign); len(fs) != 0 {
		t.Errorf("SI-vs-RC write skew is allowed, got findings: %v", fs)
	}
	// The same interleaving with the SI transaction judged at SERIALIZABLE
	// is still allowed — A5B needs both sides to forbid it.
	judge := PerTxAssign(map[int]engine.Level{1: engine.Serializable, 2: engine.ReadConsistency})
	if fs := Check(s, rr, NewOracle(), judge); len(fs) != 0 {
		t.Errorf("one-sided write skew wrongly charged: %v", fs)
	}
}

// TestMixedFaultInjection is the acceptance criterion's seeded fault
// probe: a transaction executes at READ COMMITTED inside a mixed locking
// run but is judged as REPEATABLE READ — the per-transaction oracle must
// charge it with the P2 it suffered, and the finding must shrink to a
// minimal history that replays under the finding's level annotation.
func TestMixedFaultInjection(t *testing.T) {
	fam := lockingFamily()
	o := NewOracle()
	p := DefaultParams()
	exec := PerTxAssign(map[int]engine.Level{
		1: engine.ReadCommitted, 2: engine.Degree0,
		3: engine.ReadUncommitted, 4: engine.ReadCommitted,
	})
	lie := PerTxAssign(map[int]engine.Level{
		1: engine.RepeatableRead, 2: engine.Degree0,
		3: engine.ReadUncommitted, 4: engine.ReadCommitted,
	})
	caught := false
	for seed := int64(1); seed <= 60 && !caught; seed++ {
		s := Generate(seed, p)
		rr, err := RunOne(s, fam, exec, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Judged by its own (actual) contract the run must be clean.
		if fs := Check(s, rr, o, exec); len(fs) != 0 {
			t.Fatalf("seed %d: honest mixed run flagged: %v", seed, fs)
		}
		for _, f := range Check(s, rr, o, lie) {
			if f.Kind != "oracle" || !strings.Contains(f.Detail, "P2 charged to T1=RR") {
				continue
			}
			caught = true
			if !f.Assign.Mixed() || !strings.Contains(f.String(), "levels: # levels: T1=RC") {
				t.Errorf("finding does not print the executed per-tx assignment:\n%s", f)
			}
			min := ShrinkFinding(s, f, fam, 0, o, lie)
			if min == nil {
				t.Fatalf("seed %d: finding does not reproduce for the shrinker", seed)
			}
			if len(min.Ops) >= len(s.Ops) {
				t.Errorf("seed %d: shrinker did not shrink (%d -> %d ops)", seed, len(s.Ops), len(min.Ops))
			}
			h := min.History()
			if _, err := history.Parse(h.String()); err != nil {
				t.Errorf("minimized history does not re-parse: %v", err)
			}
			// The minimized history + the printed annotation replay through
			// the per-transaction oracle and still convict T1.
			replayAssign, err := ParseAssign(lie.Annotation())
			if err != nil {
				t.Fatal(err)
			}
			convicted := false
			for _, ch := range o.Charges(phenomena.Attribution(h), replayAssign.Level) {
				if ch.ID == phenomena.P2 && ch.Victim == 1 {
					convicted = true
				}
			}
			if !convicted {
				t.Errorf("seed %d: minimized history %s does not convict T1 of P2 under %s", seed, h, lie.Annotation())
			}
		}
	}
	if !caught {
		t.Fatal("no seed produced an RR-judged P2 against T1 — fault injection found nothing")
	}
}
