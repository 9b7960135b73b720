package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/predicate"
)

// Scan-and-move: each group of rows lives in a key range of slots, half
// of them filled. A transaction scans one group by key range, deletes one
// returned row and inserts its value into a free slot of the same group,
// so the group's row count and value sum never change. The scan is a
// predicate read that inserts and deletes race, which makes it the
// phantom workload of §2.3: at SERIALIZABLE every scan, in a transaction
// that commits or not, must see its group whole.

// Free-running scan-and-move at SERIALIZABLE on both phantom protocols:
// four goroutines race scans, deletes and inserts on real cores, with no
// lockstep driver choosing the interleaving. Every scan must see its
// group whole (slots/2 rows and the loaded sum), in transactions that
// commit and in deadlock victims alike, and the committed groups must
// keep their row counts and sums. Four groups of eight slots keep the
// scans overlapping, so predicate or range locks, gap inserts and the
// deadlock detector all fire.
func TestScanMoveSerializableConservesGroups(t *testing.T) {
	const groups, slots = 4, 8
	for _, phantom := range []locking.Phantom{locking.PhantomPredicate, locking.PhantomKeyrange} {
		t.Run(phantom.String(), func(t *testing.T) {
			db := locking.NewDB(locking.WithPhantomProtection(phantom))
			loadScanMove(db, groups, slots)
			res := scanMove(db, engine.Serializable, groups, slots, 4, 150)
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.Errors != 0 || res.Commits != 4*150 {
				t.Fatalf("%v, %d errors; want %d commits and no errors", res.Metrics, res.Errors, 4*150)
			}
			t.Log(res.Metrics)
			rows, sums := scanMoveCommittedGroups(db, groups, slots)
			for g := range rows {
				if rows[g] != slots/2 || sums[g] != scanMoveGroupSum(slots) {
					t.Errorf("group %d committed %d rows summing to %d, want %d summing to %d",
						g, rows[g], sums[g], slots/2, scanMoveGroupSum(slots))
				}
			}
		})
	}
}

// scanMoveResult reports a scanMove run.
type scanMoveResult struct {
	Metrics
	// Violations lists every scan that saw its group with the wrong row
	// count or sum, or a row outside the group.
	Violations []string
}

func scanMoveKey(g, s int) data.Key { return data.Key(fmt.Sprintf("sm:%03d:%03d", g, s)) }

// scanMoveGroup returns the key range of group g's slots.
func scanMoveGroup(g int) predicate.KeyRange {
	return predicate.KeyRange{Lo: scanMoveKey(g, 0), Hi: scanMoveKey(g+1, 0)}
}

// loadScanMove fills the even slots of every group: row s holds value s+1,
// so each group has slots/2 rows summing to scanMoveGroupSum(slots).
func loadScanMove(db engine.DB, groups, slots int) {
	var tuples []data.Tuple
	for g := 0; g < groups; g++ {
		for s := 0; s < slots; s += 2 {
			tuples = append(tuples, data.Tuple{Key: scanMoveKey(g, s), Row: data.Scalar(int64(s + 1))})
		}
	}
	db.Load(tuples...)
}

// scanMoveGroupSum is the value sum every group keeps.
func scanMoveGroupSum(slots int) int64 {
	var sum int64
	for s := 0; s < slots; s += 2 {
		sum += int64(s + 1)
	}
	return sum
}

// scanMove runs workers free-running goroutines, each committing iters
// scan-and-move transactions over groups groups of slots slots (load
// them with loadScanMove), retrying prevention aborts. Every scan is
// checked against the group invariant as it returns.
func scanMove(db engine.DB, level engine.Level, groups, slots, workers, iters int) scanMoveResult {
	var c counters
	var mu sync.Mutex
	var violations []string
	wantRows, wantSum := slots/2, scanMoveGroupSum(slots)
	move := func(tx engine.Tx, rng *rand.Rand) error {
		g := rng.Intn(groups)
		rows, err := tx.Select(scanMoveGroup(g))
		if err != nil {
			return err
		}
		c.reads.Add(1)
		taken := make([]bool, slots)
		var sum int64
		bad := ""
		for _, r := range rows {
			var gg, s int
			if _, err := fmt.Sscanf(string(r.Key), "sm:%03d:%03d", &gg, &s); err != nil || gg != g || s >= slots {
				bad = fmt.Sprintf("group %d scan returned foreign key %q", g, r.Key)
				break
			}
			taken[s] = true
			sum += r.Row.Val()
		}
		if bad == "" && (len(rows) != wantRows || sum != wantSum) {
			bad = fmt.Sprintf("T%d: group %d scan saw %d rows summing to %d, want %d rows summing to %d",
				tx.ID(), g, len(rows), sum, wantRows, wantSum)
		}
		if bad != "" {
			mu.Lock()
			violations = append(violations, bad)
			mu.Unlock()
			return errScanMoveViolation
		}
		victim := rows[rng.Intn(len(rows))]
		free := rng.Intn(slots - len(rows))
		dst := 0
		for ; taken[dst] || free > 0; dst++ {
			if !taken[dst] {
				free--
			}
		}
		if err := tx.Delete(victim.Key); err != nil {
			return err
		}
		if err := tx.Put(scanMoveKey(g, dst), victim.Row); err != nil {
			return err
		}
		c.writes.Add(2)
		return nil
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				for {
					err := runTxn(db, level, func(tx engine.Tx) error { return move(tx, rng) })
					c.classify(err)
					if !engine.IsPrevention(err) {
						break
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	return scanMoveResult{Metrics: c.metrics(time.Since(start)), Violations: violations}
}

var errScanMoveViolation = errors.New("workload: scan-and-move invariant violated")

// scanMoveCommittedGroups returns each group's committed row count and
// value sum (callers read it after every transaction has terminated).
func scanMoveCommittedGroups(db engine.DB, groups, slots int) (rows []int, sums []int64) {
	rows, sums = make([]int, groups), make([]int64, groups)
	for g := 0; g < groups; g++ {
		for s := 0; s < slots; s++ {
			if row := db.ReadCommittedRow(scanMoveKey(g, s)); row != nil {
				rows[g]++
				sums[g] += row.Val()
			}
		}
	}
	return rows, sums
}
