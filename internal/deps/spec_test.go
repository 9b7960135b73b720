package deps

// The declarative specification of the dependency graph (§2.1): every
// pair of actions is tested for a conflict, and each conflict between
// committed transactions is an edge. Builder must produce the same
// nodes, edges and cycle verdicts; the spec-vs-stream tests in this
// package (and in package deps_test, over generated and corpus histories)
// hold it to that.

import "isolevel/internal/history"

// Conflicts enumerates all conflicting action pairs in h, ordered by the
// earlier action, then the later one. Only actions of distinct
// transactions conflict. Cursor reads/writes conflict exactly like plain
// reads/writes.
func Conflicts(h history.History) []Conflict {
	var out []Conflict
	for i := 0; i < len(h); i++ {
		a := h[i]
		for j := i + 1; j < len(h); j++ {
			b := h[j]
			if a.Tx == b.Tx {
				continue
			}
			if c, ok := conflictBetween(a, b); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

func conflictBetween(a, b history.Op) (Conflict, bool) {
	aR, aW := a.Kind.IsRead(), a.Kind.IsWrite()
	bR, bW := b.Kind.IsRead(), b.Kind.IsWrite()
	if (!aR && !aW) || (!bR && !bW) {
		return Conflict{}, false
	}
	// Item-item conflicts.
	if a.Item != "" && b.Item != "" && a.Item == b.Item {
		switch {
		case aW && bW:
			return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: WW, Item: string(a.Item)}, true
		case aW && bR:
			return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: WR, Item: string(a.Item)}, true
		case aR && bW:
			return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: RW, Item: string(a.Item)}, true
		}
		return Conflict{}, false
	}
	// Predicate conflicts: r[P] vs a later write annotated as in P (or a
	// predicate write on P), and the converse.
	if a.Kind == history.PredRead && bW && writeInAnyPred(b, a.Preds) {
		return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: PredRW, Item: a.Preds[0]}, true
	}
	if aW && b.Kind == history.PredRead && writeInAnyPred(a, b.Preds) {
		return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: PredWR, Item: b.Preds[0]}, true
	}
	// Two predicate writes on the same predicate conflict (ww).
	if a.Kind == history.PredWrite && b.Kind == history.PredWrite && sharePred(a.Preds, b.Preds) {
		return Conflict{FromTx: a.Tx, ToTx: b.Tx, Kind: WW, Item: a.Preds[0]}, true
	}
	return Conflict{}, false
}

func writeInAnyPred(w history.Op, preds []string) bool {
	for _, p := range preds {
		if w.InPred(p) {
			return true
		}
	}
	return false
}

func sharePred(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// SpecGraph is BuildGraph by the pairwise definition: an edge per
// conflicting pair of committed transactions' actions.
func SpecGraph(h history.History) *Graph {
	committed := h.Committed()
	g := &Graph{Edges: map[int]map[int][]Conflict{}}
	for _, tx := range h.Txns() {
		if committed[tx] {
			g.Nodes = append(g.Nodes, tx)
		}
	}
	for _, c := range Conflicts(h) {
		if !committed[c.FromTx] || !committed[c.ToTx] {
			continue
		}
		if g.Edges[c.FromTx] == nil {
			g.Edges[c.FromTx] = map[int][]Conflict{}
		}
		g.Edges[c.FromTx][c.ToTx] = append(g.Edges[c.FromTx][c.ToTx], c)
	}
	return g
}
