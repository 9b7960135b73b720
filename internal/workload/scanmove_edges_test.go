package workload

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/locking"
	"isolevel/internal/schedule"
)

// edgeDB is a locking engine whose lock-wait observer also records every
// waits-for edge its lock manager adds: the schedule runner installs its
// own observer through SetObserver, and edgeDB tees it.
type edgeDB struct {
	*locking.DB
	mu    sync.Mutex
	edges [][2]lock.TxID // (waiter, holder), in enqueue order
}

func (d *edgeDB) SetObserver(o lock.Observer) { d.DB.SetObserver(edgeObserver{o, d}) }

type edgeObserver struct {
	lock.Observer
	db *edgeDB
}

func (o edgeObserver) TxWaiting(tx lock.TxID, on []lock.TxID) {
	o.db.mu.Lock()
	for _, h := range on {
		o.db.edges = append(o.db.edges, [2]lock.TxID{tx, h})
	}
	o.db.mu.Unlock()
	o.Observer.TxWaiting(tx, on)
}

// scanMoveEdges plays two SERIALIZABLE scan-and-move transactions on one
// group of eight slots in the given interleaving ("S1 S2 D1 ...":
// S scan, D delete, I insert, C commit, then the script transaction).
// Transaction i scans the group, deletes the pick-th row its scan
// returned and inserts that value into the pick-th free slot, with
// pick = i-1 (collide: 0 for both). It
// returns every waits-for edge the lock manager added, as script
// transactions "T1->T2" in enqueue order, and each step's outcome.
func scanMoveEdges(t *testing.T, phantom locking.Phantom, order []string, collide bool) (edges, steps []string) {
	t.Helper()
	const slots = 8
	db := &edgeDB{DB: locking.NewDB(locking.WithPhantomProtection(phantom))}
	loadScanMove(db, 1, slots)
	var mu sync.Mutex
	script := map[int]int{} // engine tx id -> script txn
	var plan []schedule.Step
	for _, o := range order {
		kind, txn := o[0], int(o[1]-'0')
		pick := txn - 1
		if collide {
			pick = 0
		}
		switch kind {
		case 'S':
			plan = append(plan, schedule.OpStep(txn, o, func(c *schedule.Ctx) (any, error) {
				mu.Lock()
				script[c.Tx.ID()] = txn
				mu.Unlock()
				rows, err := c.Tx.Select(scanMoveGroup(0))
				c.Vars["rows"] = rows
				return len(rows), err
			}))
		case 'D':
			plan = append(plan, schedule.OpStep(txn, o, func(c *schedule.Ctx) (any, error) {
				rows := c.Vars["rows"].([]data.Tuple)
				return nil, c.Tx.Delete(rows[pick%len(rows)].Key)
			}))
		case 'I':
			plan = append(plan, schedule.OpStep(txn, o, func(c *schedule.Ctx) (any, error) {
				rows := c.Vars["rows"].([]data.Tuple)
				taken := make([]bool, slots)
				for _, r := range rows {
					var g, s int
					if _, err := fmt.Sscanf(string(r.Key), "sm:%03d:%03d", &g, &s); err != nil {
						return nil, err
					}
					taken[s] = true
				}
				free := pick % (slots - len(rows))
				dst := 0
				for ; taken[dst] || free > 0; dst++ {
					if !taken[dst] {
						free--
					}
				}
				return nil, c.Tx.Put(scanMoveKey(0, dst), rows[pick%len(rows)].Row)
			}))
		case 'C':
			plan = append(plan, schedule.CommitStep(txn))
		}
	}
	res, err := schedule.Run(db, schedule.Options{Level: engine.Serializable}, plan)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, e := range db.edges {
		edges = append(edges, fmt.Sprintf("T%d->T%d", script[int(e[0])], script[int(e[1])]))
	}
	for _, s := range res.Steps {
		out := "ok"
		switch {
		case s.Skipped:
			out = "skipped"
		case s.Err != nil:
			out = s.Err.Error()
		case s.Blocked:
			out = "blocked"
		}
		steps = append(steps, s.Name+":"+out)
	}
	return edges, steps
}

// interleavings returns every merge of a and b that keeps each one's
// order.
func interleavings(a, b []string) [][]string {
	if len(a) == 0 {
		return [][]string{slices.Clone(b)}
	}
	if len(b) == 0 {
		return [][]string{slices.Clone(a)}
	}
	var out [][]string
	for _, rest := range interleavings(a[1:], b) {
		out = append(out, append([]string{a[0]}, rest...))
	}
	for _, rest := range interleavings(a, b[1:]) {
		out = append(out, append([]string{b[0]}, rest...))
	}
	return out
}

// Two SERIALIZABLE scan-and-move transactions on one group add the same
// waits-for edges under both phantom protocols, in every interleaving of
// their statements, and so wait, deadlock and commit alike. Each edge is
// one §2.3 requires: a delete or insert whose row image lies in the other
// transaction's scanned range waits for that scan's lock, and a scan waits
// for a held write in its range. So predicate locks refuse no deadlock
// victim that key-range locks would let wait, and the gap in refused
// victims between the two protocols measured on the free-running
// embed_scanmove rows is timing, not a conflict one protocol adds. The
// lockstep runner runs a statement to completion unless it waits, so
// interleavings inside one statement's lock requests are not covered.
func TestScanMoveWaitsForEdgesMatchAcrossPhantomProtocols(t *testing.T) {
	t1 := []string{"S1", "D1", "I1", "C1"}
	t2 := []string{"S2", "D2", "I2", "C2"}
	waits, deadlocks := 0, 0
	for _, collide := range []bool{false, true} {
		for _, order := range interleavings(t1, t2) {
			pe, ps := scanMoveEdges(t, locking.PhantomPredicate, order, collide)
			ke, ks := scanMoveEdges(t, locking.PhantomKeyrange, order, collide)
			if !slices.Equal(pe, ke) || !slices.Equal(ps, ks) {
				t.Errorf("collide=%v %s:\n predicate: edges %v, steps %v\n keyrange:  edges %v, steps %v",
					collide, strings.Join(order, " "), pe, ps, ke, ks)
			}
			if len(pe) > 0 {
				waits++
			}
			if strings.Contains(strings.Join(ps, " "), "deadlock") {
				deadlocks++
			}
		}
	}
	if waits == 0 || deadlocks == 0 {
		t.Fatalf("%d runs waited and %d refused a deadlock victim: the scenario exercises no conflict", waits, deadlocks)
	}
	// Both scan, then T1's delete waits for T2's scan and T2's delete
	// closes the cycle: T2, the requester, is the victim on both protocols.
	for _, phantom := range []locking.Phantom{locking.PhantomPredicate, locking.PhantomKeyrange} {
		edges, steps := scanMoveEdges(t, phantom, []string{"S1", "S2", "D1", "D2", "I1", "C1", "I2", "C2"}, false)
		want := "S1:ok S2:ok D1:blocked D2:engine: deadlock victim (T2) I1:ok c1:ok I2:skipped c2:skipped"
		if !slices.Equal(edges, []string{"T1->T2"}) || strings.Join(steps, " ") != want {
			t.Errorf("%s: edges %v, steps %v; want [T1->T2], %s", phantom, edges, steps, want)
		}
	}
}
