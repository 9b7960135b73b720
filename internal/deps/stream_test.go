package deps

import (
	"reflect"
	"testing"

	"isolevel/internal/history"
)

func TestStreamGraphMatchesBatch(t *testing.T) {
	cases := map[string]history.History{
		"H1":        history.H1(),
		"H2":        history.H2(),
		"H3":        history.H3(),
		"H4":        history.H4(),
		"H4C":       history.H4C(),
		"H5":        history.H5(),
		"serial":    history.MustParse("r1[x] w1[y] c1 r2[y] w2[x] c2"),
		"aborts":    history.MustParse("w1[x] a1 r2[x] w2[x] c2 r3[x] a3"),
		"pred":      history.MustParse("r1[P] w2[y in P] c2 w3[z in P,Q] r4[Q] c4 c3 c1"),
		"predwrite": history.MustParse("w1[P] w2[P] r3[P] c1 c2 c3"),
		"cursor":    history.MustParse("rc1[x] w2[x] wc1[x] c1 c2"),
	}
	for name, h := range cases {
		b, s := SpecGraph(h), BuildGraph(h)
		if !reflect.DeepEqual(b.Nodes, s.Nodes) {
			t.Errorf("%s: nodes %v != %v", name, b.Nodes, s.Nodes)
		}
		if b.String() != s.String() {
			t.Errorf("%s: edges differ\nspec:\n%s\nstream:\n%s", name, b, s)
		}
		if (b.Cycle() == nil) != (s.Cycle() == nil) {
			t.Errorf("%s: cycle verdicts differ", name)
		}
		if !reflect.DeepEqual(b.TopoOrder(), s.TopoOrder()) {
			t.Errorf("%s: topo orders differ: %v vs %v", name, b.TopoOrder(), s.TopoOrder())
		}
	}
}

func TestBuilderSerializableIncremental(t *testing.T) {
	b := NewBuilder()
	for _, op := range history.MustParse("r1[x] w2[x] c2 w1[y] c1") {
		b.Feed(op)
	}
	if !b.Serializable() {
		t.Error("rw edge only: still serializable")
	}
	b2 := NewBuilder()
	for _, op := range history.MustParse("r1[x] w2[x] r2[y] w1[y] c1 c2") {
		b2.Feed(op)
	}
	if b2.Serializable() {
		t.Error("write-skew shape must be cyclic (rw both ways)")
	}
}

func TestMapEventsToSVOrdersByTSThenSeq(t *testing.T) {
	ev := []SVEvent{
		{TS: 2, Seq: 0, Ops: history.MustParse("w1[x] c1")},
		{TS: 1, Seq: 1, Ops: history.MustParse("r2[x]")},
		{TS: 2, Seq: 2, Ops: history.MustParse("c2")},
	}
	got := MapEventsToSV(ev).String()
	want := "r2[x] w1[x] c1 c2"
	if got != want {
		t.Errorf("MapEventsToSV = %q, want %q", got, want)
	}
}

// TestMapToSVUnchanged guards the refactor onto MapEventsToSV: the H1.SI
// mapping of the paper must still produce the documented single-valued
// form.
func TestMapToSVUnchanged(t *testing.T) {
	sv := MapToSV(FromMVHistory(history.H1SI()))
	if sv.String() != history.H1SISV().String() {
		t.Errorf("H1.SI maps to %q, want %q", sv, history.H1SISV())
	}
}
