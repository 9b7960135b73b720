package predicate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"isolevel/internal/data"
)

func tup(key string, fields map[string]int64) data.Tuple {
	return data.Tuple{Key: data.Key(key), Row: data.NewRow(fields)}
}

func TestCmpOpEval(t *testing.T) {
	cases := []struct {
		op   CmpOp
		a, b int64
		want bool
	}{
		{EQ, 1, 1, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 2, 2, false},
		{LT, 1, 2, true}, {LT, 2, 2, false}, {LT, 3, 2, false},
		{LE, 2, 2, true}, {LE, 3, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{GE, 2, 2, true}, {GE, 1, 2, false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestFieldMatch(t *testing.T) {
	p := Field{Name: "dept", Op: EQ, Arg: 1}
	if !p.Match(tup("e1", map[string]int64{"dept": 1})) {
		t.Fatal("dept==1 should match {dept:1}")
	}
	if p.Match(tup("e1", map[string]int64{"dept": 2})) {
		t.Fatal("dept==1 matched {dept:2}")
	}
	if p.Match(tup("e1", map[string]int64{"other": 1})) {
		t.Fatal("missing field should not match")
	}
	if p.Match(data.Tuple{Key: "e1", Row: nil}) {
		t.Fatal("nil row should not match")
	}
}

func TestTrueMatchesOnlyExistingRows(t *testing.T) {
	if !(True{}).Match(tup("a", map[string]int64{})) {
		t.Fatal("True should match an existing empty row")
	}
	if (True{}).Match(data.Tuple{Key: "a"}) {
		t.Fatal("True should not match a nil row")
	}
}

func TestKeyPrefixAndKeyEq(t *testing.T) {
	kp := KeyPrefix{Prefix: "emp:"}
	if !kp.Match(tup("emp:3", map[string]int64{})) {
		t.Fatal("prefix should match emp:3")
	}
	if kp.Match(tup("task:3", map[string]int64{})) {
		t.Fatal("prefix matched task:3")
	}
	ke := KeyEq{Key: "x"}
	if !ke.Match(tup("x", map[string]int64{})) || ke.Match(tup("y", map[string]int64{})) {
		t.Fatal("KeyEq wrong")
	}
}

func TestBooleanCombinators(t *testing.T) {
	active := Field{Name: "active", Op: EQ, Arg: 1}
	dept1 := Field{Name: "dept", Op: EQ, Arg: 1}
	both := And{L: active, R: dept1}
	either := Or{L: active, R: dept1}
	neg := Not{X: active}

	rowBoth := tup("e", map[string]int64{"active": 1, "dept": 1})
	rowOne := tup("e", map[string]int64{"active": 1, "dept": 2})
	rowNone := tup("e", map[string]int64{"active": 0, "dept": 2})

	if !both.Match(rowBoth) || both.Match(rowOne) {
		t.Fatal("And wrong")
	}
	if !either.Match(rowOne) || either.Match(rowNone) {
		t.Fatal("Or wrong")
	}
	if neg.Match(rowBoth) || !neg.Match(rowNone) {
		t.Fatal("Not wrong")
	}
	if neg.Match(data.Tuple{Key: "e"}) {
		t.Fatal("Not must not match a nil row (no phantom universal rows)")
	}
}

func TestMatchEitherCoversBothImages(t *testing.T) {
	p := Field{Name: "active", Op: EQ, Arg: 1}
	// Update that moves a row INTO the predicate: before misses, after hits.
	if !MatchEither(p, "e1", data.NewRow(map[string]int64{"active": 0}), data.NewRow(map[string]int64{"active": 1})) {
		t.Fatal("predicate should cover write whose after-image matches")
	}
	// Delete that removes a matching row: before hits, after nil.
	if !MatchEither(p, "e1", data.NewRow(map[string]int64{"active": 1}), nil) {
		t.Fatal("predicate should cover delete of a matching row")
	}
	// Irrelevant write.
	if MatchEither(p, "e1", data.NewRow(map[string]int64{"active": 0}), data.NewRow(map[string]int64{"active": 0})) {
		t.Fatal("predicate covered an irrelevant write")
	}
	// Insert of a matching row (phantom!).
	if !MatchEither(p, "e9", nil, data.NewRow(map[string]int64{"active": 1})) {
		t.Fatal("predicate must cover phantom inserts")
	}
}

func TestFilter(t *testing.T) {
	p := Field{Name: "v", Op: GT, Arg: 10}
	ts := []data.Tuple{
		tup("a", map[string]int64{"v": 5}),
		tup("b", map[string]int64{"v": 15}),
		tup("c", map[string]int64{"v": 25}),
	}
	got := Filter(p, ts)
	if len(got) != 2 || got[0].Key != "b" || got[1].Key != "c" {
		t.Fatalf("Filter = %v", got)
	}
}

func TestParseSimple(t *testing.T) {
	p, err := Parse("active == 1 && hours < 8")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match(tup("t1", map[string]int64{"active": 1, "hours": 3})) {
		t.Fatal("parsed predicate should match")
	}
	if p.Match(tup("t1", map[string]int64{"active": 1, "hours": 9})) {
		t.Fatal("parsed predicate matched hours 9")
	}
}

func TestParsePrecedenceAndParens(t *testing.T) {
	// || binds looser than &&.
	p := MustParse("a == 1 || a == 2 && b == 3")
	if !p.Match(tup("k", map[string]int64{"a": 1, "b": 0})) {
		t.Fatal("a==1 alone should satisfy (|| looser than &&)")
	}
	q := MustParse("(a == 1 || a == 2) && b == 3")
	if q.Match(tup("k", map[string]int64{"a": 1, "b": 0})) {
		t.Fatal("parens should force && over the disjunction")
	}
	if !q.Match(tup("k", map[string]int64{"a": 2, "b": 3})) {
		t.Fatal("a==2 && b==3 should match")
	}
}

func TestParseNegativeNumbersAndNot(t *testing.T) {
	p := MustParse("!(bal < -10)")
	if !p.Match(tup("k", map[string]int64{"bal": -5})) {
		t.Fatal("-5 is not < -10")
	}
	if p.Match(tup("k", map[string]int64{"bal": -50})) {
		t.Fatal("-50 is < -10, negation should reject")
	}
}

func TestParseKeyForms(t *testing.T) {
	p := MustParse(`key ~ "task:"`)
	if !p.Match(tup("task:1", map[string]int64{})) || p.Match(tup("emp:1", map[string]int64{})) {
		t.Fatal("key prefix parse wrong")
	}
	q := MustParse(`key == "x"`)
	if !q.Match(tup("x", map[string]int64{})) || q.Match(tup("x2", map[string]int64{})) {
		t.Fatal("key eq parse wrong")
	}
}

func TestParseTrue(t *testing.T) {
	p := MustParse("true")
	if !p.Match(tup("anything", map[string]int64{})) {
		t.Fatal("true should match any row")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a ==", "== 1", "a = 1", "a & b", "a | b", "(a == 1",
		`key ~ 5`, "key < 1", "a == b", "a == 1 extra", "!", "-", "a !! 1",
		`"str" == 1`, "a == 1 &&", `key ~ "unterminated`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	preds := []P{
		True{},
		Field{Name: "dept", Op: EQ, Arg: 1},
		Field{Name: "hours", Op: LE, Arg: -3},
		KeyPrefix{Prefix: "emp:"},
		KeyEq{Key: "x"},
		KeyRange{Lo: "acct:03", Hi: "acct:17"},
		And{L: KeyRange{Lo: "a", Hi: "m"}, R: Field{Name: "dept", Op: EQ, Arg: 1}},
		And{L: Field{Name: "a", Op: GT, Arg: 0}, R: Not{X: Field{Name: "b", Op: NE, Arg: 2}}},
		Or{L: KeyPrefix{Prefix: "t:"}, R: And{L: True{}, R: Field{Name: "z", Op: GE, Arg: 100}}},
	}
	for _, p := range preds {
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", p.String(), err)
		}
		if q.String() != p.String() {
			t.Fatalf("round trip changed: %q -> %q", p.String(), q.String())
		}
	}
}

// TestKeyRangeEmptySemantics pins the contract for lo >= hi intervals:
// they denote the empty set uniformly across Match, KeyBounds,
// DisjointWith, and the parse/String round-trip.
func TestKeyRangeEmptySemantics(t *testing.T) {
	empties := []KeyRange{
		{Lo: "m", Hi: "m"}, // degenerate
		{Lo: "z", Hi: "a"}, // inverted
		{Lo: "", Hi: ""},   // fully degenerate
	}
	tuples := []data.Tuple{
		tup("a", map[string]int64{}), tup("m", map[string]int64{}),
		tup("z", map[string]int64{}), tup("", map[string]int64{}),
	}
	others := []P{
		True{},
		KeyEq{Key: "m"},
		KeyPrefix{Prefix: "m"},
		KeyRange{Lo: "a", Hi: "z"},
		KeyRange{Lo: "z", Hi: "a"},
		Field{Name: "dept", Op: EQ, Arg: 1},
	}
	for _, kr := range empties {
		if !kr.Empty() {
			t.Errorf("%s: Empty() = false", kr)
		}
		for _, tpl := range tuples {
			if kr.Match(tpl) {
				t.Errorf("%s matched %q", kr, tpl.Key)
			}
		}
		lo, hi, bounded := KeyBounds(kr)
		if !bounded || lo != hi || lo != kr.Lo {
			t.Errorf("KeyBounds(%s) = (%q, %q, %v), want (%q, %q, true)", kr, lo, hi, bounded, kr.Lo, kr.Lo)
		}
		// Disjoint from everything, in both argument orders.
		for _, other := range others {
			if !DisjointWith(kr, other) {
				t.Errorf("DisjointWith(%s, %s) = false", kr, other)
			}
			if !DisjointWith(other, kr) {
				t.Errorf("DisjointWith(%s, %s) = false", other, kr)
			}
		}
		// String/Parse round-trips the original bounds unchanged.
		q, err := Parse(kr.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", kr.String(), err)
		}
		if q.String() != kr.String() {
			t.Errorf("round trip changed %q -> %q", kr.String(), q.String())
		}
		if qr, ok := q.(KeyRange); !ok || qr != kr {
			t.Errorf("round trip of %s produced %v", kr, q)
		}
	}
	if (KeyRange{Lo: "a", Hi: "z"}).Empty() {
		t.Error("non-empty range reported Empty")
	}
}

// randomPred builds a random predicate of bounded depth for property tests.
func randomPred(r *rand.Rand, depth int) P {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(5) {
		case 0:
			return True{}
		case 1:
			return Field{Name: string(rune('a' + r.Intn(4))), Op: CmpOp(r.Intn(6)), Arg: int64(r.Intn(21) - 10)}
		case 2:
			return KeyPrefix{Prefix: string(rune('k'+r.Intn(3))) + ":"}
		case 3:
			return KeyEq{Key: data.Key(string(rune('x' + r.Intn(3))))}
		default:
			lo := data.Key(string(rune('k' + r.Intn(3))))
			return KeyRange{Lo: lo, Hi: lo + data.Key(string(rune(':'+r.Intn(3))))}
		}
	}
	switch r.Intn(3) {
	case 0:
		return And{L: randomPred(r, depth-1), R: randomPred(r, depth-1)}
	case 1:
		return Or{L: randomPred(r, depth-1), R: randomPred(r, depth-1)}
	default:
		return Not{X: randomPred(r, depth-1)}
	}
}

func randomTuple(r *rand.Rand) data.Tuple {
	row := data.NewRow(nil)
	for _, f := range []string{"a", "b", "c", "d"} {
		if r.Intn(2) == 0 {
			row = row.With(f, int64(r.Intn(21)-10))
		}
	}
	keys := []string{"x", "y", "z", "k:1", "l:2", "m:3"}
	return data.Tuple{Key: data.Key(keys[r.Intn(len(keys))]), Row: row}
}

// Property: Parse(String(p)) evaluates identically to p on random tuples.
func TestParsePrintSemanticRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := randomPred(r, 3)
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("parse of printed %q: %v", p.String(), err)
		}
		for j := 0; j < 20; j++ {
			tpl := randomTuple(r)
			if p.Match(tpl) != q.Match(tpl) {
				t.Fatalf("semantics changed after round trip: %q on %v", p.String(), tpl)
			}
		}
	}
}

// Property: DisjointWith is sound — if it claims disjoint, no tuple matches both.
func TestDisjointSoundnessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randomPred(r, 2), randomPred(r, 2)
		if !DisjointWith(a, b) {
			continue
		}
		for j := 0; j < 50; j++ {
			tpl := randomTuple(r)
			if a.Match(tpl) && b.Match(tpl) {
				t.Fatalf("DisjointWith(%q, %q) claimed disjoint but %v matches both", a, b, tpl)
			}
		}
	}
}

func TestDisjointKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{`key == "x"`, `key == "y"`, true},
		{`key == "x"`, `key == "x"`, false},
		{`key == "emp:1"`, `key ~ "task:"`, true},
		{`key == "emp:1"`, `key ~ "emp:"`, false},
		{`key ~ "emp:"`, `key ~ "task:"`, true},
		{`key ~ "emp:"`, `key ~ "emp:1"`, false},
		{"dept == 1", "dept == 2", true},
		{"dept == 1", "dept == 1", false},
		{"hours < 3", "hours > 5", true},
		{"hours < 3", "hours > 2", false},
		{"hours <= 3", "hours >= 3", false},
		{"hours <= 3", "hours > 3", true},
		{"dept == 1", "hours == 1", false}, // different fields: unknown
		{"dept == 1 && hours < 3", "dept == 2", true},
		{"dept != 1", "dept != 2", false},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := DisjointWith(a, b); got != c.want {
			t.Errorf("DisjointWith(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := DisjointWith(b, a); got != c.want {
			t.Errorf("DisjointWith(%q, %q) (swapped) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestQuickFieldEvalMatchesDirect(t *testing.T) {
	f := func(v, arg int64, opRaw uint8) bool {
		op := CmpOp(int(opRaw) % 6)
		p := Field{Name: "f", Op: op, Arg: arg}
		got := p.Match(data.Tuple{Key: "k", Row: data.NewRow(map[string]int64{"f": v})})
		return got == op.Eval(v, arg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
