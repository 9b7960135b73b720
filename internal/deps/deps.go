// Package deps implements the paper's dependency-graph machinery (§2.1):
// conflicts, dependency graphs over committed transactions, equivalence of
// histories, and conflict-serializability, plus the multiversion-to-
// single-version mapping the paper uses to place Snapshot Isolation in the
// hierarchy (§4.2).
//
//isolint:deterministic
package deps

import (
	"fmt"
	"sort"
	"strings"

	"isolevel/internal/history"
)

// Conflict is a pair of conflicting actions: two actions of distinct
// transactions on the same data item (or a predicate and a write into it)
// where at least one is a write (§2.1).
type Conflict struct {
	FromTx, ToTx int
	Kind         ConflictKind
	Item         string // item key or predicate name
}

// ConflictKind classifies the conflict by the modes of the two actions.
type ConflictKind int

// Conflict kinds: write-write, write-read, read-write, and the predicate
// forms (a predicate read conflicting with a later write into the
// predicate, or a write conflicting with a later predicate read).
const (
	WW ConflictKind = iota
	WR
	RW
	PredRW // r[P] ... w[y in P]
	PredWR // w[y in P] ... r[P]
)

func (k ConflictKind) String() string {
	switch k {
	case WW:
		return "ww"
	case WR:
		return "wr"
	case RW:
		return "rw"
	case PredRW:
		return "rw(pred)"
	case PredWR:
		return "wr(pred)"
	}
	return fmt.Sprintf("ConflictKind(%d)", int(k))
}

func (c Conflict) String() string {
	return fmt.Sprintf("T%d %s T%d on %s", c.FromTx, c.Kind, c.ToTx, c.Item)
}

// Graph is a dependency graph: nodes are committed transactions, edges the
// temporal dataflow <op1, op2> between conflicting actions (§2.1).
type Graph struct {
	Nodes []int
	// Edges maps from-tx to the set of to-txs, with the conflicts that
	// induced each edge.
	Edges map[int]map[int][]Conflict
}

// BuildGraph constructs the dependency graph of h over its committed
// transactions, in one pass through a Builder.
func BuildGraph(h history.History) *Graph {
	b := NewBuilder()
	for _, op := range h {
		b.Feed(op)
	}
	return b.Graph()
}

// HasEdge reports whether the graph has an edge from tx a to tx b.
func (g *Graph) HasEdge(a, b int) bool {
	return len(g.Edges[a][b]) > 0
}

// Cycle returns a dependency cycle as a list of transaction numbers
// (first == last), or nil if the graph is acyclic.
func (g *Graph) Cycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[int]int{}
	parent := map[int]int{}
	var cycle []int

	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		// Deterministic order.
		var succs []int
		for v := range g.Edges[u] {
			succs = append(succs, v)
		}
		sort.Ints(succs)
		for _, v := range succs {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case grey:
				// Found cycle v -> ... -> u -> v.
				cycle = []int{v}
				for w := u; w != v; w = parent[w] {
					cycle = append(cycle, w)
				}
				cycle = append(cycle, v)
				// Reverse into forward order v -> ... -> v.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range g.Nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// TopoOrder returns a topological order of the committed transactions, or
// nil if the graph is cyclic. The order is an equivalent serial execution.
func (g *Graph) TopoOrder() []int {
	indeg := map[int]int{}
	for _, n := range g.Nodes {
		indeg[n] = 0
	}
	for _, tos := range g.Edges {
		for to := range tos {
			indeg[to]++
		}
	}
	var ready []int
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		var succs []int
		for v := range g.Edges[n] {
			succs = append(succs, v)
		}
		sort.Ints(succs)
		for _, v := range succs {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
				sort.Ints(ready)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil
	}
	return order
}

// String renders the graph edges deterministically.
func (g *Graph) String() string {
	var b strings.Builder
	for _, from := range g.Nodes {
		var tos []int
		for to := range g.Edges[from] {
			tos = append(tos, to)
		}
		sort.Ints(tos)
		for _, to := range tos {
			kinds := map[string]bool{}
			for _, c := range g.Edges[from][to] {
				kinds[c.Kind.String()] = true
			}
			var ks []string
			for k := range kinds {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			fmt.Fprintf(&b, "T%d -> T%d [%s]\n", from, to, strings.Join(ks, ","))
		}
	}
	return b.String()
}

// Serializable reports whether h is conflict-serializable: its dependency
// graph over committed transactions is acyclic (the Serializability
// Theorem, §2.2).
func Serializable(h history.History) bool {
	return BuildGraph(h).Cycle() == nil
}

// EquivalentSerialOrder returns a serial order of committed transactions
// whose serial execution has the same dependency graph, or nil if h is not
// conflict-serializable.
func EquivalentSerialOrder(h history.History) []int {
	return BuildGraph(h).TopoOrder()
}

// Equivalent reports whether two histories are equivalent per §2.1: same
// committed transactions and same dependency graph.
func Equivalent(a, b history.History) bool {
	ca, cb := a.Committed(), b.Committed()
	if len(ca) != len(cb) {
		return false
	}
	for tx := range ca {
		if !cb[tx] {
			return false
		}
	}
	ga, gb := BuildGraph(a), BuildGraph(b)
	return sameEdges(ga, gb) && sameEdges(gb, ga)
}

func sameEdges(a, b *Graph) bool {
	for from, tos := range a.Edges {
		for to := range tos {
			if !b.HasEdge(from, to) {
				return false
			}
		}
	}
	return true
}
