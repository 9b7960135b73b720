// Package data defines the row and tuple model shared by every engine in
// the repository.
//
// The paper ("A Critique of ANSI SQL Isolation Levels", SIGMOD 1995) takes a
// broad interpretation of "data item": a row, a page, a whole table, or a
// message on a queue. We model a data item as a keyed row of named int64
// fields. Simple histories such as w1[x=10] address a row by key and use the
// conventional field "val"; predicate scenarios (phantoms, job tasks) use
// richer rows such as {dept:1, hours:3, active:1}.
//
// A row is an immutable value, as a committed version is in the paper's
// multiversion schemes (§4.2): once built it never changes, and a write
// replaces a whole row. So rows are shared end to end and nothing copies
// one — not the engines, not the stores, not the lock manager's row
// images. NewRow copies the field map it is given, and that is the only
// copy a row ever needs.
//
// Besides the row model the package holds the two structural primitives
// every striped component shares: Striper (the fixed key-to-stripe hash)
// and OrderedSet (the ordered key index that the stores' range scans and
// key-range locking range over: one per sv store, one per mv stripe).
//
//isolint:deterministic
package data

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// ValField is the conventional field name used when a data item is a plain
// scalar, as in the paper's histories over items x, y, z.
const ValField = "val"

// Key identifies a data item (a row) in a store.
type Key string

// Row is a set of named int64 fields: an immutable value. A nil Row
// denotes "no row" (used for before-images of inserts and after-images of
// deletes).
//
// Nothing outside this package can change a row once it is built: RowData
// has no exported field and no method that writes, and a "change" (With)
// builds a new row. So a row is shared, never copied — between a caller
// and a store, a store and a lock's row images, a write set and the
// version it commits as. Row is a pointer so that nil keeps meaning "no
// row" and a row costs one allocation.
type Row = *RowData

// RowData is what a Row points at. Its fields are sorted by name; the
// first lives inline, so a one-field row (Scalar) is a single allocation.
type RowData struct {
	fields []field // sorted by name; aliases inline when there is at most one
	inline [1]field
}

type field struct {
	name string
	val  int64
}

// build returns a row holding n fields, for the caller to fill in name
// order; a row of at most one field keeps it inline.
func build(n int) Row {
	r := &RowData{}
	if n <= len(r.inline) {
		r.fields = r.inline[:n]
	} else {
		r.fields = make([]field, n)
	}
	return r
}

// NewRow builds a row holding a copy of fields: changing the map afterwards
// does not change the row. NewRow never returns nil; an empty map gives an
// empty row.
func NewRow(fields map[string]int64) Row {
	r := build(len(fields))
	i := 0
	//isolint:ordered the fields are sorted by name below
	for name, v := range fields {
		r.fields[i] = field{name, v}
		i++
	}
	slices.SortFunc(r.fields, func(a, b field) int { return cmp.Compare(a.name, b.name) })
	return r
}

// Scalar builds a one-field row holding v under ValField, the shape used by
// the paper's single-item histories.
func Scalar(v int64) Row {
	r := build(1)
	r.fields[0] = field{ValField, v}
	return r
}

// Val returns the scalar value of the row (its ValField), or 0 if absent.
func (r *RowData) Val() int64 {
	v, _ := r.Get(ValField)
	return v
}

// Get returns the named field and whether it is present.
func (r *RowData) Get(name string) (int64, bool) {
	if r == nil {
		return 0, false
	}
	for _, f := range r.fields {
		if f.name == name {
			return f.val, true
		}
	}
	return 0, false
}

// Equal reports whether two rows have identical field sets and values.
// Two nil rows are equal; nil differs from any non-nil row (even empty).
func (r *RowData) Equal(o Row) bool {
	if r == nil || o == nil {
		return r == o
	}
	return slices.Equal(r.fields, o.fields)
}

// With returns a row equal to r but with field name set to v; r itself is
// unchanged. With on nil builds a one-field row.
func (r *RowData) With(name string, v int64) Row {
	var fields []field
	if r != nil {
		fields = r.fields
	}
	i, found := slices.BinarySearchFunc(fields, name, func(f field, n string) int { return cmp.Compare(f.name, n) })
	n := len(fields)
	if !found {
		n++
	}
	rest := fields[i:]
	if found {
		rest = rest[1:]
	}
	c := build(n)
	copy(c.fields, fields[:i])
	c.fields[i] = field{name, v}
	copy(c.fields[i+1:], rest)
	return c
}

// String renders the row deterministically as {a:1, b:2}.
func (r *RowData) String() string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range r.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", f.name, f.val)
	}
	b.WriteByte('}')
	return b.String()
}

// Tuple pairs a key with its row.
type Tuple struct {
	Key Key
	Row Row
}

// String renders the tuple as key{fields}.
func (t Tuple) String() string { return string(t.Key) + t.Row.String() }

// SortTuples orders tuples by key, in place, for deterministic output.
func SortTuples(ts []Tuple) {
	slices.SortFunc(ts, func(a, b Tuple) int { return cmp.Compare(a.Key, b.Key) })
}

// Keys extracts the key set of a tuple slice, sorted.
func Keys(ts []Tuple) []Key {
	ks := make([]Key, len(ts))
	for i, t := range ts {
		ks[i] = t.Key
	}
	slices.Sort(ks)
	return ks
}
