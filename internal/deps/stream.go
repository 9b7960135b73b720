package deps

import (
	"sort"

	"isolevel/internal/data"
	"isolevel/internal/history"
)

// Builder constructs the dependency graph of a history incrementally, one
// op at a time, without testing every pair of ops for a conflict.
//
// Per item (and per predicate name) it keeps only the *set* of
// transactions that have read or written it so far — an edge a -> b
// exists exactly when some access of a precedes a conflicting access of
// b, so set membership at the time of b's access is all the ordering
// information needed. Per-op work is bounded by the number of
// transactions that touched the op's item, and total edge state by the
// square of the transaction count, never by the history length. The
// spec-vs-stream tests assert that Graph() agrees with the pairwise
// definition (SpecGraph in spec_test.go) on nodes, edges, cycles, and
// topological order.
type Builder struct {
	itemReaders map[data.Key]map[int]bool
	itemWriters map[data.Key]map[int]bool
	// predReaders indexes predicate reads under every name in their Preds
	// list; predWriters indexes item writes annotated "in P" (and
	// predicate writes) the same way. predWWrites holds predicate-write
	// ops only, for the pred-write/pred-write ww rule.
	predReaders map[string]map[int]bool
	predWriters map[string]map[int]bool
	predWWrites map[string]map[int]bool

	committed map[int]bool
	txs       []int
	seen      map[int]bool

	edges map[int]map[int][]Conflict
}

// NewBuilder returns an empty incremental graph builder.
func NewBuilder() *Builder {
	return &Builder{
		itemReaders: map[data.Key]map[int]bool{},
		itemWriters: map[data.Key]map[int]bool{},
		predReaders: map[string]map[int]bool{},
		predWriters: map[string]map[int]bool{},
		predWWrites: map[string]map[int]bool{},
		committed:   map[int]bool{},
		seen:        map[int]bool{},
		edges:       map[int]map[int][]Conflict{},
	}
}

// Feed consumes the next op of the history.
func (b *Builder) Feed(op history.Op) {
	t := op.Tx
	if !b.seen[t] {
		b.seen[t] = true
		b.txs = append(b.txs, t)
	}
	switch {
	case op.Kind == history.Commit:
		b.committed[t] = true
		return
	case op.Kind == history.Abort:
		return
	case op.Kind == history.PredRead:
		// Conflicts with every earlier write into any of the read's
		// predicates (the PredWR rule), then register the reader.
		for _, name := range op.Preds {
			for w := range b.predWriters[name] {
				b.edge(w, t, PredWR, name)
			}
		}
		for _, name := range op.Preds {
			put(b.predReaders, name, t)
		}
	case op.Kind.IsRead():
		if op.Item != "" {
			for w := range b.itemWriters[op.Item] {
				b.edge(w, t, WR, string(op.Item))
			}
			put(b.itemReaders, op.Item, t)
		}
	case op.Kind.IsWrite():
		if op.Item != "" {
			for w := range b.itemWriters[op.Item] {
				b.edge(w, t, WW, string(op.Item))
			}
			for r := range b.itemReaders[op.Item] {
				b.edge(r, t, RW, string(op.Item))
			}
			put(b.itemWriters, op.Item, t)
		}
		// A write annotated as falling in P conflicts with earlier reads
		// of P (the PredRW rule); two predicate writes sharing a
		// name conflict ww.
		for _, name := range op.Preds {
			for r := range b.predReaders[name] {
				b.edge(r, t, PredRW, name)
			}
			if op.Kind == history.PredWrite {
				for w := range b.predWWrites[name] {
					b.edge(w, t, WW, name)
				}
			}
			put(b.predWriters, name, t)
			if op.Kind == history.PredWrite {
				put(b.predWWrites, name, t)
			}
		}
	}
}

// edge records a conflict edge from -> to (one representative Conflict
// per (from, to, kind) — enough for HasEdge, Cycle and TopoOrder).
func (b *Builder) edge(from, to int, kind ConflictKind, item string) {
	if from == to {
		return
	}
	tos := b.edges[from]
	if tos == nil {
		tos = map[int][]Conflict{}
		b.edges[from] = tos
	}
	for _, c := range tos[to] {
		if c.Kind == kind {
			return
		}
	}
	tos[to] = append(tos[to], Conflict{FromTx: from, ToTx: to, Kind: kind, Item: item})
}

// Graph returns the dependency graph over the transactions committed so
// far.
func (b *Builder) Graph() *Graph {
	g := &Graph{Edges: map[int]map[int][]Conflict{}}
	nodes := append([]int{}, b.txs...)
	sort.Ints(nodes)
	for _, tx := range nodes {
		if b.committed[tx] {
			g.Nodes = append(g.Nodes, tx)
		}
	}
	for from, tos := range b.edges {
		if !b.committed[from] {
			continue
		}
		for to, cs := range tos {
			if !b.committed[to] {
				continue
			}
			if g.Edges[from] == nil {
				g.Edges[from] = map[int][]Conflict{}
			}
			g.Edges[from][to] = append(g.Edges[from][to], cs...)
		}
	}
	return g
}

// Serializable reports whether the committed projection seen so far is
// conflict-serializable.
func (b *Builder) Serializable() bool { return b.Graph().Cycle() == nil }

func put[K comparable](m map[K]map[int]bool, k K, v int) {
	set := m[k]
	if set == nil {
		set = map[int]bool{}
		m[k] = set
	}
	set[v] = true
}
