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
// Besides the row model the package holds the two structural primitives
// every striped component shares: Striper (the fixed key-to-stripe hash)
// and OrderedSet (the per-stripe ordered key index that the stores' range
// scans and key-range locking range over).
//
//isolint:deterministic
package data

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// ValField is the conventional field name used when a data item is a plain
// scalar, as in the paper's histories over items x, y, z.
const ValField = "val"

// Key identifies a data item (a row) in a store.
type Key string

// Row is a set of named int64 fields. A nil Row denotes "no row" (used for
// before-images of inserts and after-images of deletes).
type Row map[string]int64

// Scalar builds a one-field row holding v under ValField, the shape used by
// the paper's single-item histories.
func Scalar(v int64) Row { return Row{ValField: v} }

// Val returns the scalar value of the row (its ValField), or 0 if absent.
func (r Row) Val() int64 { return r[ValField] }

// Get returns the named field and whether it is present.
func (r Row) Get(field string) (int64, bool) {
	v, ok := r[field]
	return v, ok
}

// Clone returns a deep copy of the row. Clone of nil is nil.
func (r Row) Clone() Row {
	if r == nil {
		return nil
	}
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Equal reports whether two rows have identical field sets and values.
// Two nil rows are equal; nil differs from any non-nil row (even empty).
func (r Row) Equal(o Row) bool {
	if (r == nil) != (o == nil) {
		return false
	}
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// With returns a copy of the row with field set to v.
func (r Row) With(field string, v int64) Row {
	c := r.Clone()
	if c == nil {
		c = Row{}
	}
	c[field] = v
	return c
}

// String renders the row deterministically as {a:1, b:2}.
func (r Row) String() string {
	if r == nil {
		return "<nil>"
	}
	fields := make([]string, 0, len(r))
	for k := range r {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", k, r[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Tuple pairs a key with its row.
type Tuple struct {
	Key Key
	Row Row
}

// Clone deep-copies the tuple.
func (t Tuple) Clone() Tuple { return Tuple{Key: t.Key, Row: t.Row.Clone()} }

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
