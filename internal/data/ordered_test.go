package data

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestOrderedSetBasics(t *testing.T) {
	var s OrderedSet
	for _, k := range []Key{"m", "a", "z", "m", "c"} {
		s.Insert(k)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (duplicate insert must be a no-op)", s.Len())
	}
	if got := s.Range("", "", false); !reflect.DeepEqual(got, []Key{"a", "c", "m", "z"}) {
		t.Fatalf("full Range = %v", got)
	}
	if got := s.Range("b", "n", true); !reflect.DeepEqual(got, []Key{"c", "m"}) {
		t.Fatalf("Range[b,n) = %v", got)
	}
	if got := s.Range("a", "a", true); len(got) != 0 {
		t.Fatalf("empty Range = %v", got)
	}
	// View is the same interval without the copy: a window onto the set.
	if got := s.View("b", "n", true); !reflect.DeepEqual(got, []Key{"c", "m"}) || &got[0] != &s.keys[1] {
		t.Fatalf("View[b,n) = %v (or a copy of it)", got)
	}
	if got := s.View("", "", false); len(got) != 4 {
		t.Fatalf("full View = %v", got)
	}
	if got := s.View("n", "b", true); len(got) != 0 {
		t.Fatalf("inverted View[n,b) = %v, want empty", got)
	}
	s.Delete("m")
	s.Delete("nope")
	if s.Contains("m") || !s.Contains("a") {
		t.Fatal("Delete/Contains wrong")
	}
	if k, ok := s.Higher("a"); !ok || k != "c" {
		t.Fatalf("Higher(a) = %q,%v, want c", k, ok)
	}
	if k, ok := s.Higher("z"); ok {
		t.Fatalf("Higher(z) = %q, want none", k)
	}
	// Higher is strict: the successor of a present key is the next key.
	s.Insert("m")
	if k, ok := s.Higher("c"); !ok || k != "m" {
		t.Fatalf("Higher(c) = %q,%v, want m", k, ok)
	}
}

func TestOrderedSetRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s OrderedSet
	ref := map[Key]bool{}
	alpha := "abcdefghij"
	for i := 0; i < 2000; i++ {
		k := Key(alpha[rng.Intn(len(alpha))]) + Key(alpha[rng.Intn(len(alpha))])
		if rng.Intn(3) == 0 {
			s.Delete(k)
			delete(ref, k)
		} else {
			s.Insert(k)
			ref[k] = true
		}
	}
	var want []Key
	for k := range ref {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := s.Range("", "", false)
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered set diverged from reference map:\n got %v\nwant %v", got, want)
	}
}

func TestMergeKeys(t *testing.T) {
	got := MergeKeys([]Key{"a", "m"}, nil, []Key{"c"}, []Key{"b", "z"})
	if !reflect.DeepEqual(got, []Key{"a", "b", "c", "m", "z"}) {
		t.Fatalf("MergeKeys = %v", got)
	}
	if MergeKeys() != nil {
		t.Fatal("MergeKeys() should be nil")
	}
}
