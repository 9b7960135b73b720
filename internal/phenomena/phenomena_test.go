package phenomena

import (
	"math/rand"
	"reflect"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/history"
)

// --- The paper's §3 classification results, as tests. ---

// H1 is the inconsistent-analysis history. The paper: "The history H1 does
// not violate any of the anomalies A1, A2, or A3. ... H1 indeed violates P1."
func TestH1ViolatesP1ButNoStrictAnomaly(t *testing.T) {
	h := history.H1()
	if !Exhibits(P1, h) {
		t.Error("H1 must exhibit broad P1")
	}
	for _, id := range []ID{A1, A2, A3, P0} {
		if Exhibits(id, h) {
			t.Errorf("H1 must not exhibit %s: %v", id, Detect(id, h))
		}
	}
}

// H2: "This time neither transaction reads dirty data. Thus P1 is
// satisfied. ... no data item is read twice ... Replacing A2 with P2 ...
// H2 would now be disqualified."
func TestH2ViolatesP2ButNotA2OrP1(t *testing.T) {
	h := history.H2()
	if !Exhibits(P2, h) {
		t.Error("H2 must exhibit broad P2")
	}
	if Exhibits(A2, h) {
		t.Errorf("H2 must not exhibit A2: %v", Detect(A2, h))
	}
	if Exhibits(P1, h) {
		t.Errorf("H2 must not exhibit P1: %v", Detect(P1, h))
	}
	if Exhibits(P0, h) {
		t.Error("H2 must not exhibit P0")
	}
}

// H2 is also a read skew (the paper notes P2 is a degenerate form of A5A;
// H2 matches the full A5A pattern with x and y).
func TestH2IsAlsoReadSkew(t *testing.T) {
	if !Exhibits(A5A, history.H2()) {
		t.Error("H2 matches the A5A pattern (reads x before, y after T2's update)")
	}
}

// H3: "This history is clearly not serializable, but is allowed by A3
// since no predicate is evaluated twice." P3 forbids it.
func TestH3ViolatesP3ButNotA3(t *testing.T) {
	h := history.H3()
	if !Exhibits(P3, h) {
		t.Error("H3 must exhibit broad P3")
	}
	if Exhibits(A3, h) {
		t.Errorf("H3 must not exhibit A3: %v", Detect(A3, h))
	}
}

// H4: the lost update at READ COMMITTED (§4.1). P4 matches; so does broad
// P2 (the paper: "forbidding P2 also precludes P4").
func TestH4LostUpdate(t *testing.T) {
	h := history.H4()
	if !Exhibits(P4, h) {
		t.Error("H4 must exhibit P4")
	}
	if !Exhibits(P2, h) {
		t.Error("H4 must exhibit broad P2 (w2[x] after r1[x] while T1 active)")
	}
	if Exhibits(P0, h) || Exhibits(P1, h) {
		t.Error("H4 exhibits neither P0 nor P1 (paper: H4 is allowed when forbidding P0 and P1)")
	}
	if Exhibits(P4C, h) {
		t.Error("H4 uses plain reads, not cursor reads; P4C must not match")
	}
}

// H4C: the cursor variant of H4 matches P4C (and hence P4).
func TestH4CCursorLostUpdate(t *testing.T) {
	h := history.H4C()
	if !Exhibits(P4C, h) {
		t.Error("H4C must exhibit P4C")
	}
	if !Exhibits(P4, h) {
		t.Error("a cursor lost update is in particular a lost update")
	}
}

// H5: write skew. "H5 is non-serializable ... neither A1, A2 nor A3" —
// the paper's proof that ANOMALY SERIALIZABLE is not serializable.
func TestH5WriteSkewButNoStrictAnomaly(t *testing.T) {
	h := history.H5()
	if !Exhibits(A5B, h) {
		t.Errorf("H5 must exhibit A5B; detect: %v", Detect(A5B, h))
	}
	for _, id := range []ID{A1, A2, A3, P0, P1} {
		if Exhibits(id, h) {
			t.Errorf("H5 must not exhibit %s: %v", id, Detect(id, h))
		}
	}
	// In the single-valued interpretation, H5 does violate broad P2
	// (paper: "forbidding P2 also precludes A5B").
	if !Exhibits(P2, h) {
		t.Error("H5 must exhibit broad P2 in the SV interpretation")
	}
}

func TestDirtyWriteHistory(t *testing.T) {
	h := history.DirtyWrite()
	if !Exhibits(P0, h) {
		t.Error("DirtyWrite history must exhibit P0")
	}
	if ms := DetectP0(h); len(ms) == 0 || ms[0].OpIdx[0] != 0 || ms[0].OpIdx[1] != 1 {
		t.Errorf("P0 match indices: %v", ms)
	}
}

func TestReadSkewHistory(t *testing.T) {
	h := history.ReadSkew()
	if !Exhibits(A5A, h) {
		t.Error("ReadSkew history must exhibit A5A")
	}
	if Exhibits(P1, h) {
		t.Error("ReadSkew history has no dirty read")
	}
}

func TestWriteSkewMinimalHistory(t *testing.T) {
	h := history.WriteSkew()
	if !Exhibits(A5B, h) {
		t.Error("WriteSkew history must exhibit A5B")
	}
}

// --- Interval / terminal semantics. ---

// Once T1 commits, a later write by T2 is not a dirty write.
func TestP0DisarmedByCommit(t *testing.T) {
	h := history.MustParse("w1[x] c1 w2[x] c2")
	if Exhibits(P0, h) {
		t.Error("write after writer committed is not P0")
	}
}

func TestP1DisarmedByCommit(t *testing.T) {
	h := history.MustParse("w1[x] c1 r2[x] c2")
	if Exhibits(P1, h) {
		t.Error("read after writer committed is not P1")
	}
}

func TestP1DisarmedByAbortBetween(t *testing.T) {
	h := history.MustParse("w1[x] a1 r2[x] c2")
	if Exhibits(P1, h) {
		t.Error("read after writer aborted is not P1 (undo restored the item)")
	}
}

func TestP2DisarmedByReaderTerminal(t *testing.T) {
	h := history.MustParse("r1[x] c1 w2[x] c2")
	if Exhibits(P2, h) {
		t.Error("write after reader committed is not P2")
	}
}

// P1 with both still active (no terminals at all) is still the phenomenon:
// it might lead to an anomaly (§2.2 broad interpretation).
func TestBroadPhenomenaMatchWithoutTerminals(t *testing.T) {
	if !Exhibits(P1, history.MustParse("w1[x] r2[x]")) {
		t.Error("P1 must match before any terminal")
	}
	if !Exhibits(P2, history.MustParse("r1[x] w2[x]")) {
		t.Error("P2 must match before any terminal")
	}
	if !Exhibits(P0, history.MustParse("w1[x] w2[x]")) {
		t.Error("P0 must match before any terminal")
	}
}

// A1 requires a1 AND c2: if the reader also aborts, only P1 matches.
func TestA1RequiresReaderCommit(t *testing.T) {
	h := history.MustParse("w1[x] r2[x] a1 a2")
	if Exhibits(A1, h) {
		t.Error("A1 needs c2")
	}
	if !Exhibits(P1, h) {
		t.Error("P1 still matches")
	}
	h2 := history.MustParse("w1[x] r2[x] a1 c2")
	if !Exhibits(A1, h2) {
		t.Error("A1 must match with a1 and c2")
	}
	h3 := history.MustParse("w1[x] r2[x] c2 a1")
	if !Exhibits(A1, h3) {
		t.Error("A1 matches with c2 and a1 in either order")
	}
}

// A2 requires the reread after c2 and before c1.
func TestA2Shape(t *testing.T) {
	h := history.MustParse("r1[x=50] w2[x=10] c2 r1[x=10] c1")
	if !Exhibits(A2, h) {
		t.Errorf("canonical A2 must match: %v", Detect(A2, h))
	}
	// Reread before c2: not A2 (value unchanged — T2 not committed; under
	// locking T2's write would not even be visible).
	h2 := history.MustParse("r1[x=50] w2[x=10] r1[x=50] c2 c1")
	if Exhibits(A2, h2) {
		t.Error("reread before c2 is not A2")
	}
	// T1 aborts: not A2.
	h3 := history.MustParse("r1[x=50] w2[x=10] c2 r1[x=10] a1")
	if Exhibits(A2, h3) {
		t.Error("A2 requires c1")
	}
}

func TestA3Shape(t *testing.T) {
	h := history.MustParse("r1[P] w2[y in P] c2 r1[P] c1")
	if !Exhibits(A3, h) {
		t.Errorf("canonical A3 must match: %v", Detect(A3, h))
	}
	h2 := history.MustParse("r1[P] w2[y in P] c2 r1[Q] c1")
	if Exhibits(A3, h2) {
		t.Error("re-evaluating a different predicate is not A3")
	}
}

// P3 matches updates and deletes into the predicate, not just inserts
// (Remark 5's restatement).
func TestP3CoversAnyWriteKind(t *testing.T) {
	h := history.MustParse("r1[P] w2[P] c2 c1") // predicate write (UPDATE WHERE P)
	if !Exhibits(P3, h) {
		t.Error("predicate write into P after r1[P] must match P3")
	}
}

func TestP4RequiresCommit(t *testing.T) {
	h := history.MustParse("r1[x] w2[x] w1[x] a1 c2")
	if Exhibits(P4, h) {
		t.Error("P4 requires c1 (T1 commits the clobbering write)")
	}
}

func TestP4OrderMatters(t *testing.T) {
	// w2 after w1: no lost update (T2's write is simply later).
	h := history.MustParse("r1[x] w1[x] c1 w2[x] c2")
	if Exhibits(P4, h) {
		t.Error("w2 after c1 is not P4")
	}
}

func TestA5ARequiresTwoItems(t *testing.T) {
	// Same-item version is P2/A2 territory, not A5A.
	h := history.MustParse("r1[x] w2[x] c2 r1[x] c1")
	if Exhibits(A5A, h) {
		t.Error("A5A requires a second item y != x")
	}
}

func TestA5ATailAllowsAbort(t *testing.T) {
	// Per the definition, T1 may commit or abort: ...r1[y]...(c1 or a1).
	h := history.MustParse("r1[x=50] w2[x=10] w2[y=90] c2 r1[y=90] a1")
	if !Exhibits(A5A, h) {
		t.Error("A5A matches even when T1 aborts")
	}
}

func TestA5BRequiresBothCommits(t *testing.T) {
	h := history.MustParse("r1[x] r2[y] w1[y] w2[x] c1 a2")
	if Exhibits(A5B, h) {
		t.Error("A5B requires both commits")
	}
}

func TestA5BNotMatchedWhenReadFollowsWrite(t *testing.T) {
	// T2 reads y only after T1 committed its write of y: no skew, plain
	// sequential flow.
	h := history.MustParse("r1[x] w1[y] c1 r2[y] w2[x] c2")
	if Exhibits(A5B, h) {
		t.Error("no write skew when the second reader sees the first writer's commit")
	}
}

// --- Profile and registry. ---

func TestProfileOfH1(t *testing.T) {
	p := Profile(history.H1())
	if !p[P1] || p[A1] || p[A2] || p[A3] || p[P0] {
		t.Errorf("H1 profile = %v", p)
	}
}

func TestNameAndAll(t *testing.T) {
	if len(All) != 11 {
		t.Fatalf("All has %d entries", len(All))
	}
	for _, id := range All {
		if Name(id) == "" || Name(id) == string(id) {
			t.Errorf("Name(%s) = %q", id, Name(id))
		}
	}
	if Detect(ID("nope"), history.H1()) != nil {
		t.Error("unknown ID should detect nothing")
	}
}

func TestMatchString(t *testing.T) {
	ms := DetectP0(history.DirtyWrite())
	if len(ms) == 0 {
		t.Fatal("no match")
	}
	if s := ms[0].String(); s == "" {
		t.Error("empty match string")
	}
}

// --- Properties. ---

// Strict anomalies imply the corresponding broad phenomena on arbitrary
// histories (the paper: broad interpretations prohibit strictly more).
// The same histories hold the Stream to the spec's attribution.
func TestStrictImpliesBroadProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pairs := []struct{ strict, broad ID }{{A1, P1}, {A2, P2}, {A3, P3}}
	for i := 0; i < 400; i++ {
		h := randomHistory(r)
		if spec, got := SpecAttribution(h), Attribution(h); !reflect.DeepEqual(spec, got) {
			t.Fatalf("%s:\n  spec   %v\n  stream %v", h, spec, got)
		}
		for _, pr := range pairs {
			if Exhibits(pr.strict, h) && !Exhibits(pr.broad, h) {
				t.Fatalf("%s without %s in %s", pr.strict, pr.broad, h)
			}
		}
		if Exhibits(P4C, h) && !Exhibits(P4, h) {
			t.Fatalf("P4C without P4 in %s", h)
		}
	}
}

// Serial histories exhibit none of the phenomena ("None of these phenomena
// could occur in a serial history", §2.2).
func TestSerialHistoriesCleanProperty(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		h := randomSerialHistory(r)
		for _, id := range All {
			if Exhibits(id, h) {
				t.Fatalf("serial history exhibits %s: %s\nmatches: %v", id, h, Detect(id, h))
			}
		}
	}
}

func randomHistory(r *rand.Rand) history.History {
	items := []data.Key{"x", "y", "z"}
	var h history.History
	done := map[int]bool{}
	n := 4 + r.Intn(12)
	for i := 0; i < n; i++ {
		tx := 1 + r.Intn(3)
		if done[tx] {
			continue
		}
		switch r.Intn(8) {
		case 0, 1:
			h = append(h, history.NewOp(tx, history.Read, items[r.Intn(3)]))
		case 2, 3:
			h = append(h, history.NewOp(tx, history.Write, items[r.Intn(3)]))
		case 4:
			h = append(h, history.Op{Tx: tx, Kind: history.PredRead, Preds: []string{"P"}, Version: -1})
		case 5:
			h = append(h, history.NewOp(tx, history.Write, items[r.Intn(3)]).WithPreds("P"))
		case 6:
			h = append(h, history.Op{Tx: tx, Kind: history.Commit, Version: -1})
			done[tx] = true
		case 7:
			h = append(h, history.Op{Tx: tx, Kind: history.Abort, Version: -1})
			done[tx] = true
		}
	}
	// Terminate stragglers so strict patterns have their commits available.
	for tx := 1; tx <= 3; tx++ {
		if !done[tx] && len(h.OpsOf(tx)) > 0 {
			h = append(h, history.Op{Tx: tx, Kind: history.Commit, Version: -1})
		}
	}
	return h
}

func randomSerialHistory(r *rand.Rand) history.History {
	items := []data.Key{"x", "y", "z"}
	var h history.History
	order := r.Perm(3)
	for _, idx := range order {
		tx := idx + 1
		n := 1 + r.Intn(5)
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				h = append(h, history.NewOp(tx, history.Read, items[r.Intn(3)]))
			case 1:
				h = append(h, history.NewOp(tx, history.Write, items[r.Intn(3)]))
			case 2:
				h = append(h, history.Op{Tx: tx, Kind: history.PredRead, Preds: []string{"P"}, Version: -1})
			case 3:
				h = append(h, history.NewOp(tx, history.Write, items[r.Intn(3)]).WithPreds("P"))
			}
		}
		term := history.Commit
		if r.Intn(4) == 0 {
			term = history.Abort
		}
		h = append(h, history.Op{Tx: tx, Kind: term, Version: -1})
	}
	return h
}
