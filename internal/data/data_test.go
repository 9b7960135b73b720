package data

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	r := Scalar(42)
	if got := r.Val(); got != 42 {
		t.Fatalf("Val() = %d, want 42", got)
	}
	if v, ok := r.Get(ValField); !ok || v != 42 {
		t.Fatalf("Get(val) = %d,%v", v, ok)
	}
}

func TestValOfNilRow(t *testing.T) {
	var r Row
	if got := r.Val(); got != 0 {
		t.Fatalf("nil row Val() = %d, want 0", got)
	}
}

func TestGetMissingField(t *testing.T) {
	r := NewRow(map[string]int64{"a": 1})
	if _, ok := r.Get("b"); ok {
		t.Fatal("Get of missing field reported ok")
	}
}

// A row is a value: the map it was built from stays the caller's, and
// changing it afterwards changes nothing in the row.
func TestNewRowCopiesItsMap(t *testing.T) {
	m := map[string]int64{"a": 1, "b": 2}
	r := NewRow(m)
	m["a"] = 99
	m["c"] = 3
	delete(m, "b")
	if !r.Equal(NewRow(map[string]int64{"a": 1, "b": 2})) {
		t.Fatalf("changing the constructor's map changed the row: %v", r)
	}
	if NewRow(nil) == nil || NewRow(nil).String() != "{}" {
		t.Fatalf("NewRow(nil) = %v, want the empty row", NewRow(nil))
	}
}

// A Scalar is one allocation: its one field lives inline.
func TestScalarIsOneAllocation(t *testing.T) {
	var sink Row
	if n := testing.AllocsPerRun(100, func() { sink = Scalar(7) }); n != 1 {
		t.Fatalf("Scalar allocates %v objects, want 1", n)
	}
	if sink.Val() != 7 {
		t.Fatal(sink)
	}
}

// readOnly is the whole method set of a row: everything in it reads.
var readOnly = map[string]bool{"Val": true, "Get": true, "Equal": true, "With": true, "String": true}

// Nothing outside this package can write a row: RowData exports no field,
// and every method it has is one of the read-only set (With builds a new
// row). A field or a method added to the type fails here until it is
// argued into readOnly.
func TestRowIsReadOnlyOutsideThePackage(t *testing.T) {
	typ := reflect.TypeOf(Row(nil))
	for i := 0; i < typ.Elem().NumField(); i++ {
		if f := typ.Elem().Field(i); f.IsExported() {
			t.Errorf("RowData exports field %s", f.Name)
		}
	}
	for i := 0; i < typ.NumMethod(); i++ {
		if m := typ.Method(i); !readOnly[m.Name] {
			t.Errorf("Row has method %s outside the read-only set", m.Name)
		}
	}
	if n := reflect.TypeOf(RowData{}).NumMethod(); n != 0 {
		t.Errorf("RowData has %d value-receiver methods, want none", n)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Row
		want bool
	}{
		{nil, nil, true},
		{nil, NewRow(nil), false},
		{NewRow(nil), NewRow(nil), true},
		{NewRow(map[string]int64{"a": 1}), NewRow(map[string]int64{"a": 1}), true},
		{NewRow(map[string]int64{"a": 1}), NewRow(map[string]int64{"a": 2}), false},
		{NewRow(map[string]int64{"a": 1}), NewRow(map[string]int64{"b": 1}), false},
		{NewRow(map[string]int64{"a": 1}), NewRow(map[string]int64{"a": 1, "b": 2}), false},
		{Scalar(1), NewRow(map[string]int64{ValField: 1}), true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal(%v,%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("case %d: Equal not symmetric", i)
		}
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	r := NewRow(map[string]int64{"a": 1, "c": 3})
	r2 := r.With("a", 5).With("b", 6).With("d", 7).With("0", 8)
	if !r.Equal(NewRow(map[string]int64{"a": 1, "c": 3})) {
		t.Fatalf("With mutated receiver: %v", r)
	}
	if want := "{0:8, a:5, b:6, c:3, d:7}"; r2.String() != want {
		t.Fatalf("With result = %v, want %s", r2, want)
	}
}

func TestWithOnNil(t *testing.T) {
	var r Row
	if r2 := r.With("x", 1); !r2.Equal(NewRow(map[string]int64{"x": 1})) {
		t.Fatalf("With on nil row: %v", r2)
	}
}

func TestRowStringDeterministic(t *testing.T) {
	r := NewRow(map[string]int64{"b": 2, "a": 1, "c": 3})
	want := "{a:1, b:2, c:3}"
	for i := 0; i < 10; i++ {
		if got := r.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	var nilRow Row
	if nilRow.String() != "<nil>" {
		t.Fatalf("nil row String() = %q", nilRow.String())
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{Key: "x", Row: Scalar(7)}
	if tp.String() != "x{val:7}" {
		t.Fatalf("Tuple.String() = %q", tp.String())
	}
	if s := (Tuple{Key: "y"}).String(); s != "y<nil>" {
		t.Fatalf("Tuple.String() of no row = %q", s)
	}
}

func TestSortTuplesAndKeys(t *testing.T) {
	ts := []Tuple{{Key: "c"}, {Key: "a"}, {Key: "b"}}
	SortTuples(ts)
	if ts[0].Key != "a" || ts[1].Key != "b" || ts[2].Key != "c" {
		t.Fatalf("SortTuples order: %v", ts)
	}
	ks := Keys([]Tuple{{Key: "z"}, {Key: "m"}})
	if len(ks) != 2 || ks[0] != "m" || ks[1] != "z" {
		t.Fatalf("Keys: %v", ks)
	}
}

// A row built from a map holds exactly the map: it equals itself, reads
// back every field, and has no field the map lacks.
func TestNewRowEqualProperty(t *testing.T) {
	f := func(m map[string]int64) bool {
		r := NewRow(m)
		if !r.Equal(NewRow(m)) || len(r.fields) != len(m) {
			return false
		}
		for k, v := range m {
			if got, ok := r.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEqualReflexiveProperty(t *testing.T) {
	f := func(m map[string]int64) bool {
		r := NewRow(m)
		return r.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
