// Package phenomena decides which of the paper's phenomena and anomalies
// a history exhibits, and between which transactions, in one pass over
// its ops (Stream; Profile, Attribution and Exhibits feed one). The
// definitions below are also written out as declarative pattern matchers
// in spec_test.go, the specification the Stream is tested against.
//
// The paper distinguishes broad interpretations (phenomena, P-numbers):
// action subsequences that *might* lead to anomalous behavior, from strict
// interpretations (anomalies, A-numbers): subsequences where something
// anomalous actually *has* happened (§2.2, §3). Section 3's Remark 5 gives
// the final forms, dropping the (c2 or a2) clauses that do not restrict
// histories:
//
//	P0: w1[x]...w2[x]...(c1 or a1)            Dirty Write
//	P1: w1[x]...r2[x]...(c1 or a1)            Dirty Read
//	P2: r1[x]...w2[x]...(c1 or a1)            Fuzzy / Non-Repeatable Read
//	P3: r1[P]...w2[y in P]...(c1 or a1)       Phantom
//	A1: w1[x]...r2[x]...(a1 and c2 either order)
//	A2: r1[x]...w2[x]...c2...r1[x]...c1
//	A3: r1[P]...w2[y in P]...c2...r1[P]...c1
//	P4: r1[x]...w2[x]...w1[x]...c1            Lost Update (§4.1)
//	P4C: rc1[x]...w2[x]...w1[x]...c1          Cursor Lost Update (§4.1)
//	A5A: r1[x]...w2[x]...w2[y]...c2...r1[y]...(c1 or a1)   Read Skew (§4.2)
//	A5B: r1[x]...r2[y]...w1[y]...w2[x]...(c1 and c2)       Write Skew (§4.2)
//
// Following the paper, a transaction that never terminates inside the given
// history is treated as still active; the "...(c1 or a1)" tail is satisfied
// if T1's terminal comes after the matched prefix or does not occur at all
// (the phenomenon has already happened; only an intervening terminal
// between the two conflicting actions disarms it).
//
//isolint:deterministic
package phenomena

import "fmt"

// ID names a phenomenon or anomaly from the paper.
type ID string

// The paper's phenomena (broad interpretations) and anomalies (strict).
const (
	P0  ID = "P0"  // Dirty Write
	P1  ID = "P1"  // Dirty Read (broad)
	A1  ID = "A1"  // Dirty Read (strict)
	P2  ID = "P2"  // Fuzzy Read (broad)
	A2  ID = "A2"  // Fuzzy Read (strict)
	P3  ID = "P3"  // Phantom (broad)
	A3  ID = "A3"  // Phantom (strict)
	P4  ID = "P4"  // Lost Update
	P4C ID = "P4C" // Cursor Lost Update
	A5A ID = "A5A" // Read Skew
	A5B ID = "A5B" // Write Skew
)

// All lists every identifier the checker decides, in presentation order
// (the column order of the paper's Table 4, plus the strict anomalies).
var All = []ID{P0, P1, A1, P2, A2, P3, A3, P4, P4C, A5A, A5B}

// Name returns the paper's prose name for the identifier.
func Name(id ID) string {
	switch id {
	case P0:
		return "Dirty Write"
	case P1, A1:
		return "Dirty Read"
	case P2, A2:
		return "Fuzzy Read"
	case P3, A3:
		return "Phantom"
	case P4:
		return "Lost Update"
	case P4C:
		return "Cursor Lost Update"
	case A5A:
		return "Read Skew"
	case A5B:
		return "Write Skew"
	}
	return string(id)
}

// Pair names the two transactions participating in a phenomenon, in the
// pattern's subscript order: A is the pattern's T1, B its T2. Every
// phenomenon and anomaly of the paper is a two-transaction pattern, so a
// pair fully attributes a match. Which participant a phenomenon is
// *charged* to — whose lock protocol was supposed to prevent it — is the
// per-transaction oracle's concern (internal/exerciser), not this
// package's; here A/B are purely positional:
//
//	P0:  A overwritten first writer, B second writer
//	P1:  A dirty writer,             B reader
//	A1:  A rolled-back writer,       B committed reader
//	P2:  A reader,                   B overwriter
//	A2:  A rereading reader,         B committed overwriter
//	P3:  A predicate reader,         B writer into the predicate
//	A3:  A re-evaluating reader,     B committed writer into the predicate
//	P4:  A read-modify-write committer, B intervening writer
//	P4C: A cursor read-modify-write committer, B intervening writer
//	A5A: A skewed reader,            B two-item committed writer
//	A5B: the two skewed writers, normalized A < B (the pattern is
//	     symmetric, so role order carries no information)
type Pair struct {
	A, B int
}

func (p Pair) String() string { return fmt.Sprintf("T%d/T%d", p.A, p.B) }
