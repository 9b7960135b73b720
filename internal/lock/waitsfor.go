// The waits-for graph is the lock manager's standalone deadlock detector.
// It used to live inline in the manager's single mutex; with the lock
// tables striped there is no longer one latch under which the whole graph
// can be rebuilt per request, so the graph is maintained incrementally
// under its own lock instead:
//
//   - When a request is about to start waiting, AddWaiter atomically runs
//     the cycle check and, only if no cycle would form, records the
//     requester's out-edges. The check-and-insert is atomic so that two
//     requests admitted concurrently from different stripes can never both
//     miss the cycle they jointly close.
//   - Whenever the granted state a waiter conflicts with changes (a
//     release drained its stripe, a fresh grant slid past it in the queue,
//     a predicate lock appeared), the drain recomputes the waiter's
//     conflict set and calls Refresh.
//   - When a waiter is granted, cancelled, or its transaction releases
//     everything, Remove deletes its node.
//
// Edges always point from a waiting transaction to the transactions whose
// granted locks block it. Every cycle is closed by the newest request, so
// checking at AddWaiter time is sufficient, and the requester-is-victim
// rule stays deterministic: the transaction whose request would close the
// cycle is the one refused. Releases only remove edges, and a refresh
// never adds an edge toward a waiting transaction. A refresh adds w -> h
// only for a lock h was granted after w's deciding read — the conflict
// set w's AddWaiter checked — had looked at h's stripe. That read comes
// after w's request is visible in its queue: an item request enqueues
// under the same stripe latch, and a range or gap request is published to
// rangeQ before it reads (keyrange.go). So whatever grants h the lock
// sees the queued w and refreshes w's edges before h is woken or returns
// — under the stripe latch, or behind rangeMu — that is, before h can be
// waiting. If h later waits on anything that leads back to w, its own
// AddWaiter sees w -> h and h is refused.
package lock

import "sync"

// WaitsFor is a waits-for graph over transactions, safe for concurrent use
// by all lock-table stripes. Each transaction has at most one pending lock
// request, so the graph stores one out-edge set per transaction.
type WaitsFor struct {
	mu  sync.Mutex
	out map[TxID][]TxID
}

// NewWaitsFor returns an empty waits-for graph.
func NewWaitsFor() *WaitsFor {
	return &WaitsFor{out: map[TxID][]TxID{}}
}

// AddWaiter atomically checks whether tx waiting on the transactions in
// `on` would close a cycle. If it would, nothing is recorded and AddWaiter
// returns false: the requester is the deadlock victim. Otherwise tx's
// out-edges are set to `on` and AddWaiter returns true.
func (g *WaitsFor) AddWaiter(tx TxID, on []TxID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cycleLocked(tx, on) {
		return false
	}
	g.out[tx] = append([]TxID(nil), on...)
	return true
}

// Refresh replaces the out-edges of an already-admitted waiter with its
// recomputed conflict set. No cycle check runs: the victim rule applies
// only to new requests, and a refresh cannot close a cycle (see the
// package comment above).
func (g *WaitsFor) Refresh(tx TxID, on []TxID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(on) == 0 {
		delete(g.out, tx)
		return
	}
	// The graph owns its edge slices and never hands them out, so the old
	// one is overwritten in place.
	g.out[tx] = append(g.out[tx][:0], on...)
}

// Remove deletes tx's node: its request was granted or cancelled, or the
// transaction terminated.
func (g *WaitsFor) Remove(tx TxID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.out, tx)
}

// Empty reports whether no transaction has recorded out-edges — i.e. no
// admitted waiter is blocked on anyone. The range-aware drain uses it to
// skip its all-stripe edge refresh on releases that granted nothing.
func (g *WaitsFor) Empty() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.out) == 0
}

// Waiting reports whether tx currently has recorded out-edges (tests and
// debugging).
func (g *WaitsFor) Waiting(tx TxID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.out[tx]
	return ok
}

// CycleFrom returns the waits-for cycle that refusing tx's request
// avoided: the path tx -> on... -> tx, as a transaction list starting and
// ending with tx. It exists for the flight recorder's deadlock dump —
// AddWaiter only reports *that* a cycle would close; this recovers *which*
// transactions close it. Called right after a failed AddWaiter, before
// any latch is dropped, so the graph still holds the refusing state.
// Returns nil if no cycle is found (the caller raced a refresh; the dump
// then just names the victim).
func (g *WaitsFor) CycleFrom(tx TxID, on []TxID) []TxID {
	g.mu.Lock()
	defer g.mu.Unlock()
	// DFS from each direct blocker back to tx, keeping the path. Blockers
	// are sorted (conflict sets are), so the recovered cycle is
	// deterministic.
	visited := map[TxID]bool{}
	var path []TxID
	var dfs func(n TxID) bool
	dfs = func(n TxID) bool {
		path = append(path, n)
		if n == tx {
			return true
		}
		if !visited[n] {
			visited[n] = true
			for _, next := range g.out[n] {
				if dfs(next) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		return false
	}
	for _, first := range on {
		if dfs(first) {
			return append([]TxID{tx}, path...)
		}
	}
	return nil
}

// cycleLocked reports whether adding tx -> on would create a path back to
// tx. Called with mu held.
func (g *WaitsFor) cycleLocked(tx TxID, on []TxID) bool {
	stack := append([]TxID(nil), on...)
	visited := map[TxID]bool{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == tx {
			return true
		}
		if visited[n] {
			continue
		}
		visited[n] = true
		stack = append(stack, g.out[n]...)
	}
	return false
}
