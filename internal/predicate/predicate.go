// Package predicate implements the <search condition> language used by
// predicate reads (r1[P]) and predicate locks.
//
// Following the paper's Section 2.3, a predicate covers every row that
// satisfies it — including "phantom" rows not currently in the database but
// that an INSERT, UPDATE, or DELETE would cause to satisfy it. Conflict
// detection against writes therefore evaluates a predicate on both the
// before-image and the after-image of the write.
//
// The language is deliberately small but real: comparisons of int64 fields
// against constants, conjunction, disjunction, negation, and parentheses,
// plus key-prefix matching for table scoping (keys such as "emp:3").
//
//	active == 1 && hours < 8
//	key ~ "task:" && (dept == 1 || dept == 2)
//
//isolint:deterministic
package predicate

import (
	"fmt"
	"strings"

	"isolevel/internal/data"
)

// P is a predicate over tuples. Implementations must be immutable and
// safe for concurrent use.
type P interface {
	// Match reports whether the tuple satisfies the predicate. A nil row
	// (absent item) satisfies no predicate.
	Match(t data.Tuple) bool
	// String renders the predicate in the concrete syntax accepted by Parse.
	String() string
}

// CmpOp is a comparison operator in a field predicate.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota // ==
	NE              // !=
	LT              // <
	LE              // <=
	GT              // >
	GE              // >=
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Eval applies the comparison to two int64 values.
func (op CmpOp) Eval(a, b int64) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	return false
}

// True matches every existing row. It is the predicate behind "scan all".
type True struct{}

// Match implements P. A nil row still matches nothing.
func (True) Match(t data.Tuple) bool { return t.Row != nil }

func (True) String() string { return "true" }

// Field compares a named row field against a constant. Rows lacking the
// field do not match.
type Field struct {
	Name string
	Op   CmpOp
	Arg  int64
}

// Match implements P.
func (f Field) Match(t data.Tuple) bool {
	v, ok := t.Row.Get(f.Name)
	return ok && f.Op.Eval(v, f.Arg)
}

func (f Field) String() string { return fmt.Sprintf("%s %s %d", f.Name, f.Op, f.Arg) }

// KeyPrefix matches rows whose key begins with Prefix. It scopes a predicate
// to a logical table when keys follow the "table:id" convention.
type KeyPrefix struct {
	Prefix string
}

// Match implements P.
func (k KeyPrefix) Match(t data.Tuple) bool {
	return t.Row != nil && strings.HasPrefix(string(t.Key), k.Prefix)
}

func (k KeyPrefix) String() string { return fmt.Sprintf("key ~ %q", k.Prefix) }

// KeyEq matches exactly one key: the paper's "item lock is a predicate lock
// where the predicate names the specific record" (§2.3).
type KeyEq struct {
	Key data.Key
}

// Match implements P.
func (k KeyEq) Match(t data.Tuple) bool { return t.Row != nil && t.Key == k.Key }

func (k KeyEq) String() string { return fmt.Sprintf("key == %q", string(k.Key)) }

// KeyRange matches rows in the half-open key interval [Lo, Hi). It is the
// predicate behind range scans ("SCAN lo hi"): key-range locking extracts
// exactly this interval via KeyBounds, so the scan's gap fragments cover
// the scanned keys and nothing more.
//
// Empty intervals (Lo >= Hi) are legal and denote the empty set,
// uniformly: Match matches nothing, KeyBounds collapses to the
// well-formed empty interval [Lo, Lo), DisjointWith proves the range
// disjoint from every predicate, and String/Parse round-trip the
// original bounds unchanged.
type KeyRange struct {
	Lo, Hi data.Key
}

// Empty reports whether the interval denotes the empty set (Lo >= Hi).
func (k KeyRange) Empty() bool { return k.Lo >= k.Hi }

// Match implements P.
func (k KeyRange) Match(t data.Tuple) bool {
	return t.Row != nil && t.Key >= k.Lo && t.Key < k.Hi
}

func (k KeyRange) String() string {
	return fmt.Sprintf("key in [%q, %q)", string(k.Lo), string(k.Hi))
}

// And is the conjunction of its operands.
type And struct{ L, R P }

// Match implements P.
func (a And) Match(t data.Tuple) bool { return a.L.Match(t) && a.R.Match(t) }

func (a And) String() string { return fmt.Sprintf("(%s && %s)", a.L, a.R) }

// Or is the disjunction of its operands.
type Or struct{ L, R P }

// Match implements P.
func (o Or) Match(t data.Tuple) bool { return o.L.Match(t) || o.R.Match(t) }

func (o Or) String() string { return fmt.Sprintf("(%s || %s)", o.L, o.R) }

// Not negates its operand. A nil row still matches nothing: predicates
// range over (possible) rows, and "no row" satisfies no search condition.
type Not struct{ X P }

// Match implements P.
func (n Not) Match(t data.Tuple) bool { return t.Row != nil && !n.X.Match(t) }

func (n Not) String() string { return fmt.Sprintf("!(%s)", n.X) }

// MatchEither reports whether the predicate covers a write with the given
// before- and after-images on key. This is the conflict rule from §2.3: a
// predicate lock conflicts with a write if some (possibly phantom) data item
// is covered by both — operationally, if either image satisfies P.
func MatchEither(p P, key data.Key, before, after data.Row) bool {
	return p.Match(data.Tuple{Key: key, Row: before}) || p.Match(data.Tuple{Key: key, Row: after})
}

// Filter returns the tuples satisfying p, preserving input order.
func Filter(p P, ts []data.Tuple) []data.Tuple {
	var out []data.Tuple
	for _, t := range ts {
		if p.Match(t) {
			out = append(out, t)
		}
	}
	return out
}

// DisjointWith conservatively reports whether two predicates provably cover
// disjoint row sets. Predicate-overlap is undecidable in general; like
// production lock managers we only prove disjointness in easy syntactic
// cases and otherwise assume overlap (which can only strengthen, never
// weaken, a locking level):
//
//   - different KeyEq keys are disjoint;
//   - KeyEq vs KeyPrefix that does not cover the key;
//   - two KeyPrefix with incompatible prefixes;
//   - KeyRange vs KeyEq/KeyRange/KeyPrefix with non-overlapping intervals;
//   - Field comparisons on the same field with incompatible ranges
//     (e.g. dept == 1 vs dept == 2, hours < 3 vs hours > 5).
func DisjointWith(a, b P) bool {
	switch x := a.(type) {
	case KeyEq:
		switch y := b.(type) {
		case KeyEq:
			return x.Key != y.Key
		case KeyPrefix:
			return !strings.HasPrefix(string(x.Key), y.Prefix)
		}
	case KeyPrefix:
		switch y := b.(type) {
		case KeyEq:
			return !strings.HasPrefix(string(y.Key), x.Prefix)
		case KeyPrefix:
			return !strings.HasPrefix(x.Prefix, y.Prefix) && !strings.HasPrefix(y.Prefix, x.Prefix)
		}
	case KeyRange:
		if x.Empty() {
			return true // the empty set is disjoint from everything
		}
		switch y := b.(type) {
		case KeyEq:
			return y.Key < x.Lo || y.Key >= x.Hi
		case KeyRange:
			return y.Empty() || x.Hi <= y.Lo || y.Hi <= x.Lo
		case KeyPrefix:
			// The prefix block is [prefix, prefixEnd(prefix)).
			if end, ok := prefixEnd(y.Prefix); ok {
				return end <= x.Lo || x.Hi <= data.Key(y.Prefix)
			}
			return x.Hi <= data.Key(y.Prefix)
		}
	case Field:
		if y, ok := b.(Field); ok && x.Name == y.Name {
			return fieldRangesDisjoint(x, y)
		}
	case And:
		// (L && R) disjoint from b if either conjunct is.
		return DisjointWith(x.L, b) || DisjointWith(x.R, b)
	}
	if y, ok := b.(And); ok {
		return DisjointWith(y.L, a) || DisjointWith(y.R, a)
	}
	if _, ok := b.(KeyEq); ok {
		return DisjointWith(b, a)
	}
	if _, ok := b.(KeyPrefix); ok {
		return DisjointWith(b, a)
	}
	if _, ok := b.(KeyRange); ok {
		return DisjointWith(b, a)
	}
	return false
}

// fieldRangesDisjoint decides emptiness of the intersection of two
// single-field interval constraints. NE constraints are treated as
// overlapping everything (they exclude a single point).
func fieldRangesDisjoint(a, b Field) bool {
	lo := func(f Field) (int64, bool, bool) { // lower bound, inclusive, exists
		switch f.Op {
		case EQ:
			return f.Arg, true, true
		case GT:
			return f.Arg, false, true
		case GE:
			return f.Arg, true, true
		}
		return 0, false, false
	}
	hi := func(f Field) (int64, bool, bool) { // upper bound, inclusive, exists
		switch f.Op {
		case EQ:
			return f.Arg, true, true
		case LT:
			return f.Arg, false, true
		case LE:
			return f.Arg, true, true
		}
		return 0, false, false
	}
	disjoint := func(x, y Field) bool {
		xh, xhInc, xhOK := hi(x)
		yl, ylInc, ylOK := lo(y)
		if !xhOK || !ylOK {
			return false
		}
		if xh < yl {
			return true
		}
		if xh == yl && (!xhInc || !ylInc) {
			return true
		}
		return false
	}
	return disjoint(a, b) || disjoint(b, a)
}
