package phenomena

// The declarative specification of the checker: one pattern matcher per
// identifier, each a direct transcription of the paper's definition that
// rescans the whole history. Stream must agree with them on every
// identifier and every participating pair; the spec-vs-stream tests in
// this package (and in package phenomena_test, over generated and corpus
// histories) hold it to that.

import (
	"fmt"

	"isolevel/internal/history"
)

// Match records one occurrence of a phenomenon in a history: the indices of
// the ops forming the pattern, in pattern order, and the participating
// transaction pair.
type Match struct {
	ID    ID
	OpIdx []int
	Txs   Pair
}

func (m Match) String() string { return fmt.Sprintf("%s at ops %v (%s)", m.ID, m.OpIdx, m.Txs) }

// Detect runs the matcher for id over h.
func Detect(id ID, h history.History) []Match {
	if m := matchers[id]; m != nil {
		return m(h)
	}
	return nil
}

var matchers = map[ID]func(history.History) []Match{
	P0: DetectP0, P1: DetectP1, A1: DetectA1, P2: DetectP2, A2: DetectA2, P3: DetectP3,
	A3: DetectA3, P4: DetectP4, P4C: DetectP4C, A5A: DetectA5A, A5B: DetectA5B,
}

// SpecProfile is Profile by the matchers: every identifier with a match.
func SpecProfile(h history.History) map[ID]bool {
	out := map[ID]bool{}
	for _, id := range All {
		if len(Detect(id, h)) > 0 {
			out[id] = true
		}
	}
	return out
}

// SpecAttribution is Attribution by the matchers: the pairs of every
// match, per identifier.
func SpecAttribution(h history.History) map[ID]map[Pair]bool {
	out := map[ID]map[Pair]bool{}
	for _, id := range All {
		for _, m := range Detect(id, h) {
			if out[id] == nil {
				out[id] = map[Pair]bool{}
			}
			out[id][m.Txs] = true
		}
	}
	return out
}

// isItemWrite reports whether the op writes the specific item (w, wc, or d
// — a delete conflicts with reads and writes of its item like any write).
func isItemWrite(op history.Op) bool {
	return op.Kind == history.Write || op.Kind == history.WriteCursor || op.Kind == history.Delete
}

// isItemRead reports whether the op reads the specific item (r or rc).
func isItemRead(op history.Op) bool {
	return op.Kind == history.Read || op.Kind == history.ReadCursor
}

// DetectP0 finds Dirty Writes: w1[x]...w2[x] with T1 still active in
// between (no c1/a1 separating them), T1 != T2.
func DetectP0(h history.History) []Match {
	var out []Match
	for i, a := range h {
		if !isItemWrite(a) {
			continue
		}
		for j := i + 1; j < len(h); j++ {
			b := h[j]
			if b.Tx == a.Tx && b.Kind.IsTerminal() {
				break // T1 terminated; later writes are not dirty w.r.t. this one
			}
			if isItemWrite(b) && b.Item == a.Item && b.Tx != a.Tx {
				out = append(out, Match{ID: P0, OpIdx: []int{i, j}, Txs: Pair{a.Tx, b.Tx}})
			}
		}
	}
	return out
}

// DetectP1 finds Dirty Reads (broad): w1[x]...r2[x] with T1 still active.
func DetectP1(h history.History) []Match {
	var out []Match
	for i, a := range h {
		if !isItemWrite(a) {
			continue
		}
		for j := i + 1; j < len(h); j++ {
			b := h[j]
			if b.Tx == a.Tx && b.Kind.IsTerminal() {
				break
			}
			if isItemRead(b) && b.Item == a.Item && b.Tx != a.Tx {
				out = append(out, Match{ID: P1, OpIdx: []int{i, j}, Txs: Pair{a.Tx, b.Tx}})
			}
		}
	}
	return out
}

// DetectA1 finds strict Dirty Reads: w1[x]...r2[x]...(a1 and c2 in either
// order) — the write is rolled back after being read, and the reader
// commits.
func DetectA1(h history.History) []Match {
	aborted := h.Aborted()
	committed := h.Committed()
	var out []Match
	for _, m := range DetectP1(h) {
		wIdx, rIdx := m.OpIdx[0], m.OpIdx[1]
		w, r := h[wIdx], h[rIdx]
		if aborted[w.Tx] && committed[r.Tx] {
			out = append(out, Match{ID: A1, OpIdx: m.OpIdx, Txs: Pair{w.Tx, r.Tx}})
		}
	}
	return out
}

// DetectP2 finds Fuzzy Reads (broad): r1[x]...w2[x] with T1 still active.
func DetectP2(h history.History) []Match {
	var out []Match
	for i, a := range h {
		if !isItemRead(a) {
			continue
		}
		for j := i + 1; j < len(h); j++ {
			b := h[j]
			if b.Tx == a.Tx && b.Kind.IsTerminal() {
				break
			}
			if isItemWrite(b) && b.Item == a.Item && b.Tx != a.Tx {
				out = append(out, Match{ID: P2, OpIdx: []int{i, j}, Txs: Pair{a.Tx, b.Tx}})
			}
		}
	}
	return out
}

// DetectA2 finds strict Fuzzy Reads: r1[x]...w2[x]...c2...r1[x]...c1 —
// the same transaction rereads the item after the modifier committed, and
// itself commits.
func DetectA2(h history.History) []Match {
	var out []Match
	for i, r1 := range h {
		if !isItemRead(r1) {
			continue
		}
		for j := i + 1; j < len(h); j++ {
			w2 := h[j]
			if w2.Tx == r1.Tx && w2.Kind.IsTerminal() {
				break
			}
			if !isItemWrite(w2) || w2.Item != r1.Item || w2.Tx == r1.Tx {
				continue
			}
			c2 := h.TerminalIndex(w2.Tx)
			if c2 < 0 || h[c2].Kind != history.Commit || c2 < j {
				continue
			}
			c1 := h.TerminalIndex(r1.Tx)
			if c1 < 0 || h[c1].Kind != history.Commit {
				continue
			}
			for k := c2 + 1; k < c1; k++ {
				rr := h[k]
				if rr.Tx == r1.Tx && isItemRead(rr) && rr.Item == r1.Item {
					out = append(out, Match{ID: A2, OpIdx: []int{i, j, c2, k, c1}, Txs: Pair{r1.Tx, w2.Tx}})
				}
			}
		}
	}
	return out
}

// DetectP3 finds Phantoms (broad): r1[P]...w2[y in P] with T1 still active.
// The write may be an item write annotated as falling in P, or a predicate
// write on P itself. Per Remark 5 the write can be an insert, update, or
// delete.
func DetectP3(h history.History) []Match {
	var out []Match
	for i, a := range h {
		if a.Kind != history.PredRead {
			continue
		}
		pred := a.Preds[0]
		for j := i + 1; j < len(h); j++ {
			b := h[j]
			if b.Tx == a.Tx && b.Kind.IsTerminal() {
				break
			}
			if b.Tx == a.Tx || !b.Kind.IsWrite() {
				continue
			}
			if b.InPred(pred) || (b.Kind == history.PredWrite && b.InPred(pred)) {
				out = append(out, Match{ID: P3, OpIdx: []int{i, j}, Txs: Pair{a.Tx, b.Tx}})
			}
		}
	}
	return out
}

// DetectA3 finds strict Phantoms: r1[P]...w2[y in P]...c2...r1[P]...c1.
func DetectA3(h history.History) []Match {
	var out []Match
	for i, r1 := range h {
		if r1.Kind != history.PredRead {
			continue
		}
		pred := r1.Preds[0]
		for j := i + 1; j < len(h); j++ {
			w2 := h[j]
			if w2.Tx == r1.Tx && w2.Kind.IsTerminal() {
				break
			}
			if w2.Tx == r1.Tx || !w2.Kind.IsWrite() || !w2.InPred(pred) {
				continue
			}
			c2 := h.TerminalIndex(w2.Tx)
			if c2 < 0 || h[c2].Kind != history.Commit || c2 < j {
				continue
			}
			c1 := h.TerminalIndex(r1.Tx)
			if c1 < 0 || h[c1].Kind != history.Commit {
				continue
			}
			for k := c2 + 1; k < c1; k++ {
				rr := h[k]
				if rr.Tx == r1.Tx && rr.Kind == history.PredRead && rr.InPred(pred) {
					out = append(out, Match{ID: A3, OpIdx: []int{i, j, c2, k, c1}, Txs: Pair{r1.Tx, w2.Tx}})
				}
			}
		}
	}
	return out
}

// DetectP4 finds Lost Updates: r1[x]...w2[x]...w1[x]...c1. T2 need not have
// committed for the pattern (H4 has c2 before w1[x], but the definition
// does not require it).
func DetectP4(h history.History) []Match {
	return detectLostUpdate(h, P4, func(op history.Op) bool { return isItemRead(op) })
}

// DetectP4C finds Cursor Lost Updates: rc1[x]...w2[x]...w1[x]...c1, where
// the first read is through a cursor (rc) and T1's write may be wc or w.
func DetectP4C(h history.History) []Match {
	return detectLostUpdate(h, P4C, func(op history.Op) bool { return op.Kind == history.ReadCursor })
}

func detectLostUpdate(h history.History, id ID, firstRead func(history.Op) bool) []Match {
	var out []Match
	for i, r1 := range h {
		if !firstRead(r1) {
			continue
		}
		c1 := h.TerminalIndex(r1.Tx)
		if c1 < 0 || h[c1].Kind != history.Commit {
			continue // P4/P4C require T1 to commit
		}
		for j := i + 1; j < c1; j++ {
			w2 := h[j]
			if !isItemWrite(w2) || w2.Item != r1.Item || w2.Tx == r1.Tx {
				continue
			}
			for k := j + 1; k < c1; k++ {
				w1 := h[k]
				if isItemWrite(w1) && w1.Item == r1.Item && w1.Tx == r1.Tx {
					out = append(out, Match{ID: id, OpIdx: []int{i, j, k, c1}, Txs: Pair{r1.Tx, w2.Tx}})
				}
			}
		}
	}
	return out
}

// DetectA5A finds Read Skew: r1[x]...w2[x]...w2[y]...c2...r1[y] with x != y
// and T1 not yet terminated before reading y.
func DetectA5A(h history.History) []Match {
	var out []Match
	for i, r1x := range h {
		if !isItemRead(r1x) {
			continue
		}
		t1End := h.TerminalIndex(r1x.Tx)
		limit := len(h)
		if t1End >= 0 {
			limit = t1End
		}
		for j := i + 1; j < limit; j++ {
			w2x := h[j]
			if !isItemWrite(w2x) || w2x.Item != r1x.Item || w2x.Tx == r1x.Tx {
				continue
			}
			c2 := h.TerminalIndex(w2x.Tx)
			if c2 < 0 || h[c2].Kind != history.Commit {
				continue
			}
			for k := j + 1; k < c2; k++ {
				w2y := h[k]
				if !isItemWrite(w2y) || w2y.Tx != w2x.Tx || w2y.Item == r1x.Item {
					continue
				}
				for l := c2 + 1; l < limit; l++ {
					r1y := h[l]
					if isItemRead(r1y) && r1y.Tx == r1x.Tx && r1y.Item == w2y.Item {
						out = append(out, Match{ID: A5A, OpIdx: []int{i, j, k, c2, l}, Txs: Pair{r1x.Tx, w2x.Tx}})
					}
				}
			}
		}
	}
	return out
}

// DetectA5B finds Write Skew: r1[x]...r2[y]...w1[y]...w2[x] with both
// transactions committing. Also matches the symmetric interleaving where
// T2's read precedes T1's (the pattern is symmetric in T1/T2; the paper
// writes one representative order).
func DetectA5B(h history.History) []Match {
	committed := h.Committed()
	var out []Match
	for i, r1x := range h {
		if !isItemRead(r1x) || !committed[r1x.Tx] {
			continue
		}
		t1 := r1x.Tx
		for j := 0; j < len(h); j++ {
			r2y := h[j]
			if !isItemRead(r2y) || r2y.Tx == t1 || !committed[r2y.Tx] {
				continue
			}
			t2 := r2y.Tx
			if r2y.Item == r1x.Item {
				continue // write skew needs two distinct items
			}
			// T1 writes T2's item y after reading x; T2 writes T1's item x.
			var w1y, w2x = -1, -1
			for k := i + 1; k < len(h); k++ {
				op := h[k]
				if isItemWrite(op) && op.Tx == t1 && op.Item == r2y.Item {
					w1y = k
					break
				}
			}
			for k := j + 1; k < len(h); k++ {
				op := h[k]
				if isItemWrite(op) && op.Tx == t2 && op.Item == r1x.Item {
					w2x = k
					break
				}
			}
			if w1y < 0 || w2x < 0 {
				continue
			}
			// Both reads must precede the opposing writes (each transaction
			// decided from a state the other was about to invalidate).
			if i < w2x && j < w1y && t1 < t2 {
				out = append(out, Match{ID: A5B, OpIdx: []int{i, j, w1y, w2x}, Txs: Pair{t1, t2}})
			}
		}
	}
	return out
}
