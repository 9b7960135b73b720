// Package ansi models the ANSI SQL-92 phenomenon-based isolation level
// definitions (the paper's Table 1) and the repaired definitions of Remark
// 5 (Table 3): an isolation level is the set of histories that exhibit none
// of the level's forbidden phenomena.
//
// Table 1 gives each level two readings — one forbidding the strict
// anomalies (A1, A2, A3), one forbidding the broad phenomena (P1, P2, P3).
// The paper's §3 shows the strict readings have "unintended weaknesses"
// (H1–H3 slip through), and even the broad readings omit P0 and admit
// non-serializable histories such as H5; this package makes both failures
// checkable.
//
//isolint:deterministic
package ansi

import (
	"isolevel/internal/history"
	"isolevel/internal/phenomena"
)

// Level is a phenomenon-based isolation level: a name plus the set of
// phenomena histories at this level must not exhibit.
type Level struct {
	Name      string
	Forbidden []phenomena.ID
}

// Admits reports whether the history satisfies the level, i.e. exhibits
// none of the forbidden phenomena.
func (l Level) Admits(h history.History) bool {
	return l.FirstViolation(h) == ""
}

// FirstViolation returns the first forbidden phenomenon the history
// exhibits, or "" if the history is admitted.
func (l Level) FirstViolation(h history.History) phenomena.ID {
	if v := l.Violations(h); len(v) > 0 {
		return v[0]
	}
	return ""
}

// Violations returns every forbidden phenomenon the history exhibits, in
// the order of Forbidden.
func (l Level) Violations(h history.History) []phenomena.ID {
	prof := phenomena.Profile(h)
	var out []phenomena.ID
	for _, id := range l.Forbidden {
		if prof[id] {
			out = append(out, id)
		}
	}
	return out
}

// --- Table 1: the original ANSI definitions. ---
//
// "Each isolation level is characterized by the phenomena that a
// transaction is forbidden to experience (broad or strict
// interpretations)." Strict variants carry the Anomaly suffix.

// Strict (anomaly) readings of Table 1.
var (
	ReadUncommittedA1 = Level{Name: "ANSI READ UNCOMMITTED (strict)", Forbidden: nil}
	ReadCommittedA1   = Level{Name: "ANSI READ COMMITTED (strict)", Forbidden: []phenomena.ID{phenomena.A1}}
	RepeatableReadA1  = Level{Name: "ANSI REPEATABLE READ (strict)", Forbidden: []phenomena.ID{phenomena.A1, phenomena.A2}}
	// AnomalySerializable is Table 1's bottom row under the strict reading:
	// "disallowing the three phenomena implies serializability" is the
	// common misconception the paper refutes (H5 passes, yet is not
	// serializable).
	AnomalySerializable = Level{Name: "ANOMALY SERIALIZABLE", Forbidden: []phenomena.ID{phenomena.A1, phenomena.A2, phenomena.A3}}
)

// Broad (phenomenon) readings of Table 1.
var (
	ReadUncommittedP = Level{Name: "ANSI READ UNCOMMITTED (broad)", Forbidden: nil}
	ReadCommittedP   = Level{Name: "ANSI READ COMMITTED (broad)", Forbidden: []phenomena.ID{phenomena.P1}}
	RepeatableReadP  = Level{Name: "ANSI REPEATABLE READ (broad)", Forbidden: []phenomena.ID{phenomena.P1, phenomena.P2}}
	SerializableP    = Level{Name: "ANSI SERIALIZABLE (broad, phenomena only)", Forbidden: []phenomena.ID{phenomena.P1, phenomena.P2, phenomena.P3}}
)

// Table1Strict lists the strict-reading levels in Table 1 row order.
var Table1Strict = []Level{ReadUncommittedA1, ReadCommittedA1, RepeatableReadA1, AnomalySerializable}

// Table1Broad lists the broad-reading levels in Table 1 row order.
var Table1Broad = []Level{ReadUncommittedP, ReadCommittedP, RepeatableReadP, SerializableP}

// --- Table 3: the repaired definitions (Remark 5). ---
//
// "P0, P1, P2, and P3 are disguised redefinitions of locking behavior"
// (Remark 6): these levels coincide with the locking levels of Table 2.

var (
	// ReadUncommitted forbids P0 only: even the weakest level must hold
	// long write locks (Remark 3).
	ReadUncommitted = Level{Name: "READ UNCOMMITTED", Forbidden: []phenomena.ID{phenomena.P0}}
	// ReadCommitted adds P1: well-formed short read locks.
	ReadCommitted = Level{Name: "READ COMMITTED", Forbidden: []phenomena.ID{phenomena.P0, phenomena.P1}}
	// RepeatableRead adds P2: long item read locks; phantoms remain.
	RepeatableRead = Level{Name: "REPEATABLE READ", Forbidden: []phenomena.ID{phenomena.P0, phenomena.P1, phenomena.P2}}
	// Serializable adds P3: long predicate read locks.
	Serializable = Level{Name: "SERIALIZABLE", Forbidden: []phenomena.ID{phenomena.P0, phenomena.P1, phenomena.P2, phenomena.P3}}
)

// Table3 lists the repaired levels in Table 3 row order.
var Table3 = []Level{ReadUncommitted, ReadCommitted, RepeatableRead, Serializable}

// Stronger reports whether every history admitted by a is also admitted by
// b... on the given corpus of witness histories. True strength comparisons
// quantify over all histories; on a finite corpus this is the observable
// approximation the table regenerators use.
func Stronger(stronger, weaker Level, corpus []history.History) bool {
	for _, h := range corpus {
		if stronger.Admits(h) && !weaker.Admits(h) {
			return false
		}
	}
	return true
}
