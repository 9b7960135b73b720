package phenomena

import (
	"reflect"
	"testing"

	"isolevel/internal/history"
)

func TestStreamMatchesBatchOnPaperHistories(t *testing.T) {
	cases := map[string]history.History{
		"H1":     history.H1(),
		"H2":     history.H2(),
		"H3":     history.H3(),
		"H4":     history.H4(),
		"H4C":    history.H4C(),
		"H5":     history.H5(),
		"H1SI":   history.H1SI(),
		"H1SISV": history.H1SISV(),
	}
	for name, h := range cases {
		if b, s := SpecAttribution(h), Attribution(h); !reflect.DeepEqual(b, s) {
			t.Errorf("%s: spec %v != stream %v", name, b, s)
		}
	}
}

func TestStreamPerPhenomenon(t *testing.T) {
	cases := []struct {
		src  string
		want ID
	}{
		{"w1[x] w2[x] c1 c2", P0},
		{"w1[x] r2[x] c1 c2", P1},
		{"w1[x] r2[x] c2 a1", A1},
		{"r1[x] w2[x] c2 c1", P2},
		{"r1[x] w2[x] c2 r1[x] c1", A2},
		{"r1[P] w2[y in P] c2 c1", P3},
		{"r1[P] w2[y in P] c2 r1[P] c1", A3},
		{"r1[x] w2[x] w1[x] c1 c2", P4},
		{"rc1[x] w2[x] wc1[x] c1 c2", P4C},
		{"r1[x] w2[x] w2[y] c2 r1[y] c1", A5A},
		{"r1[x] r2[y] w1[y] w2[x] c1 c2", A5B},
	}
	for _, c := range cases {
		h := history.MustParse(c.src)
		if !Exhibits(c.want, h) {
			t.Errorf("%q: stream misses %s", c.src, c.want)
		}
		if !SpecProfile(h)[c.want] {
			t.Errorf("%q: spec misses %s (test case wrong)", c.src, c.want)
		}
	}
}

func TestStreamNegatives(t *testing.T) {
	cases := []struct {
		src string
		not ID
	}{
		// Terminal between the conflicting pair disarms the broad forms.
		{"w1[x] c1 w2[x] c2", P0},
		{"w1[x] a1 r2[x] c2", P1},
		{"r1[x] c1 w2[x] c2", P2},
		{"r1[P] c1 w2[y in P] c2", P3},
		// A1 needs writer abort AND reader commit.
		{"w1[x] r2[x] c2 c1", A1},
		{"w1[x] r2[x] a2 a1", A1},
		// A2 needs the reread after the writer's commit, then commit.
		{"r1[x] w2[x] r1[x] c2 c1", A2},
		{"r1[x] w2[x] c2 r1[x] a1", A2},
		// P4 needs T1 to commit.
		{"r1[x] w2[x] w1[x] a1 c2", P4},
		// A5A: the second read must come after the writer's commit.
		{"r1[x] w2[x] w2[y] r1[y] c2 c1", A5A},
		// A5B needs both to commit.
		{"r1[x] r2[y] w1[y] w2[x] c1 a2", A5B},
	}
	for _, c := range cases {
		h := history.MustParse(c.src)
		if Exhibits(c.not, h) {
			t.Errorf("%q: stream wrongly reports %s", c.src, c.not)
		}
		if SpecProfile(h)[c.not] {
			t.Errorf("%q: spec wrongly reports %s (test case wrong)", c.src, c.not)
		}
	}
}

// TestStreamIncremental checks Seen grows mid-history, not only at the end.
func TestStreamIncremental(t *testing.T) {
	s := NewStream()
	for _, op := range history.MustParse("w1[x] r2[x]") {
		s.Feed(op)
	}
	if !s.Exhibits(P1) {
		t.Error("P1 should be visible before any terminal arrives")
	}
	if s.Exhibits(A1) {
		t.Error("A1 needs the abort/commit pair")
	}
	for _, op := range history.MustParse("c2 a1") {
		s.Feed(op)
	}
	if !s.Exhibits(A1) {
		t.Error("A1 after reader commit + writer abort")
	}
}

// TestStreamAttributionMatchesBatch checks that the Stream attributes
// every phenomenon to exactly the transaction pairs the spec's matchers
// report, over the paper histories plus shapes chosen to stress
// the identity-carrying state machines (multiple interveners, multiple
// victims, pairs that outlive their transactions).
func TestStreamAttributionMatchesBatch(t *testing.T) {
	cases := []string{
		// Paper shapes.
		"r1[x=50] w1[x=10] r2[x=10] r2[y=50] c2 r1[y=50] w1[y=90] c1",
		"r1[x=50] r2[x=50] w2[x=10] r2[y=50] w2[y=90] c2 r1[y=90] c1",
		"r1[P] w2[y in P] r2[z] w2[z] c2 r1[z] c1",
		"r1[x] r2[x] w2[x] c2 w1[x] c1",
		"rc1[x] r2[x] w2[x] c2 wc1[x] c1",
		"r1[x] r2[y] w1[y] w2[x] c1 c2",
		// Two distinct dirty writers of the same reader.
		"w1[x] r3[x] w2[y] r3[y] c3 a1 a2",
		// Two interveners in one lost update.
		"r1[x] w2[x] w3[x] w1[x] c1 c2 c3",
		// A2 with two committed overwriters armed by separate rereads.
		"r1[x] w2[x] c2 r1[x] w3[x] c3 r1[x] c1",
		// A3 with two committed predicate writers.
		"r1[P] w2[y in P] c2 r1[P] w3[z in P] c3 r1[P] c1",
		// A5A: two two-item writers skewing the same reader.
		"r1[x] w2[x] w2[y] c2 w3[x] w3[z] c3 r1[y] r1[z] c1",
		// A5B among three transactions: pairs (1,2) and (1,3).
		"r1[x] r2[y] r3[z] w1[y] w1[z] w2[x] w3[x] c1 c2 c3",
		// A1 in both terminal orders.
		"w1[x] r2[x] c2 a1",
		"w1[x] r2[x] a1",
		"w1[x] r2[x] w3[y] r2[y] a3 c2 a1",
		// P0 chain: three stacked uncommitted writers.
		"w1[x] w2[x] w3[x] c1 c2 c3",
		// The per-transaction oracle's charge cases (internal/exerciser).
		"w1[x] r2[x] c2 c1",
		"w1[x] w2[x] c1 c2",
		"r1[x] w2[x] c2 c1",
		"r1[x] w2[x] w1[x] c1 c2",
		"r1[x] r2[y] w1[y] c1 w2[x] c2",
		"r1[P] w2[y in P] c2 c1",
	}
	for _, src := range cases {
		h := history.MustParse(src)
		spec, stream := SpecAttribution(h), Attribution(h)
		if !reflect.DeepEqual(spec, stream) {
			t.Errorf("%q:\n  spec   %v\n  stream %v", src, spec, stream)
		}
	}
}

// TestAttributionRoles pins the pair role convention (A = pattern's T1)
// for each identifier on its minimal history.
func TestAttributionRoles(t *testing.T) {
	cases := []struct {
		src  string
		id   ID
		want Pair
	}{
		{"w1[x] w2[x] c1 c2", P0, Pair{1, 2}},
		{"w2[x] r1[x] c2 c1", P1, Pair{2, 1}}, // A is the writer
		{"w2[x] r1[x] c1 a2", A1, Pair{2, 1}},
		{"r2[x] w1[x] c2 c1", P2, Pair{2, 1}}, // A is the reader
		{"r1[x] w2[x] c2 r1[x] c1", A2, Pair{1, 2}},
		{"r2[P] w1[y in P] c2 c1", P3, Pair{2, 1}},
		{"r1[P] w2[y in P] c2 r1[P] c1", A3, Pair{1, 2}},
		{"r2[x] w1[x] w2[x] c2 c1", P4, Pair{2, 1}},
		{"rc2[x] w1[x] wc2[x] c2 c1", P4C, Pair{2, 1}},
		{"r1[x] w2[x] w2[y] c2 r1[y] c1", A5A, Pair{1, 2}},
		{"r3[x] r2[y] w3[y] w2[x] c3 c2", A5B, Pair{2, 3}}, // normalized min/max
	}
	for _, c := range cases {
		h := history.MustParse(c.src)
		for name, attr := range map[string]map[ID]map[Pair]bool{
			"spec": SpecAttribution(h), "stream": Attribution(h),
		} {
			if !attr[c.id][c.want] {
				t.Errorf("%q: %s attribution of %s lacks %v (got %v)", c.src, name, c.id, c.want, attr[c.id])
			}
		}
	}
}
