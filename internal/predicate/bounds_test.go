package predicate

import (
	"testing"

	"isolevel/internal/data"
)

func TestKeyBounds(t *testing.T) {
	cases := []struct {
		name    string
		p       P
		lo, hi  data.Key
		bounded bool
	}{
		{"keyeq", KeyEq{Key: "x"}, "x", "x\x00", true},
		{"keyrange", KeyRange{Lo: "a", Hi: "m"}, "a", "m", true},
		{"keyrange-empty", KeyRange{Lo: "m", Hi: "a"}, "m", "m", true},
		{"and-range-intersect", And{L: KeyRange{Lo: "a", Hi: "m"}, R: KeyRange{Lo: "c", Hi: "z"}}, "c", "m", true},
		{"prefix", KeyPrefix{Prefix: "task:"}, "task:", "task;", true},
		{"prefix-ff", KeyPrefix{Prefix: "\xff\xff"}, "", "", false},
		{"field", Field{Name: "val", Op: GE, Arg: 3}, "", "", false},
		{"true", True{}, "", "", false},
		{"and-one-side", And{L: KeyPrefix{Prefix: "t:"}, R: Field{Name: "v", Op: EQ, Arg: 1}}, "t:", "t;", true},
		{"and-intersect", And{L: KeyPrefix{Prefix: "t:"}, R: KeyEq{Key: "t:5"}}, "t:5", "t:5\x00", true},
		{"and-empty", And{L: KeyEq{Key: "a"}, R: KeyEq{Key: "b"}}, "b", "b", true},
		{"or-hull", Or{L: KeyEq{Key: "a"}, R: KeyEq{Key: "c"}}, "a", "c\x00", true},
		{"or-unbounded", Or{L: KeyEq{Key: "a"}, R: True{}}, "", "", false},
		{"not", Not{X: KeyEq{Key: "a"}}, "", "", false},
	}
	for _, c := range cases {
		lo, hi, bounded := KeyBounds(c.p)
		if lo != c.lo || hi != c.hi || bounded != c.bounded {
			t.Errorf("%s: KeyBounds(%s) = (%q, %q, %v), want (%q, %q, %v)",
				c.name, c.p, lo, hi, bounded, c.lo, c.hi, c.bounded)
		}
	}
}

// TestKeyBoundsCover: bounded extractions must cover every matching key —
// the soundness contract key-range locking relies on.
func TestKeyBoundsCover(t *testing.T) {
	preds := []P{
		KeyEq{Key: "t:3"},
		KeyPrefix{Prefix: "t:"},
		KeyRange{Lo: "t:1", Hi: "t:5"},
		And{L: KeyPrefix{Prefix: "t:"}, R: Field{Name: "v", Op: GT, Arg: 0}},
		Or{L: KeyEq{Key: "a"}, R: KeyPrefix{Prefix: "t:"}},
	}
	keys := []data.Key{"a", "b", "t:", "t:0", "t:3", "t:3\x00x", "t:9", "t;", "u", "zzz"}
	for _, p := range preds {
		lo, hi, bounded := KeyBounds(p)
		if !bounded {
			continue
		}
		for _, k := range keys {
			if p.Match(data.Tuple{Key: k, Row: data.NewRow(map[string]int64{"v": 1})}) && !(lo <= k && k < hi) {
				t.Errorf("KeyBounds(%s) = [%q, %q) fails to cover matching key %q", p, lo, hi, k)
			}
		}
	}
}
