package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
)

// Disjoint write sets must commit in parallel through the striped commit
// path without losing or tearing anything. Run with -race: this is the
// regression test for replacing the global commit mutex with per-stripe
// latches.
func TestStripedCommitDisjointWriteSets(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewDB(WithShards(shards))
			if got := db.ShardCount(); got != shards {
				t.Fatalf("ShardCount = %d, want %d", got, shards)
			}
			const workers, iters, span = 6, 40, 4
			var tuples []data.Tuple
			for i := 0; i < workers*span; i++ {
				tuples = append(tuples, data.Tuple{Key: data.Key(fmt.Sprintf("k%d", i)), Row: data.Scalar(0)})
			}
			db.Load(tuples...)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tx, _ := db.Begin(engine.SnapshotIsolation)
						for k := 0; k < span; k++ {
							key := data.Key(fmt.Sprintf("k%d", w*span+k))
							v, err := engine.GetVal(tx, key)
							if err != nil {
								t.Errorf("get %s: %v", key, err)
								return
							}
							if err := engine.PutVal(tx, key, v+1); err != nil {
								t.Errorf("put %s: %v", key, err)
								return
							}
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("disjoint commit failed: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for i := 0; i < workers*span; i++ {
				key := data.Key(fmt.Sprintf("k%d", i))
				if got := db.ReadCommittedRow(key).Val(); got != iters {
					t.Fatalf("%s = %d, want %d", key, got, iters)
				}
			}
		})
	}
}

// Overlapping write sets must still serialize per key: concurrent
// increments of shared keys may abort (FCW) but never lose a committed
// update, at any stripe count. Run with -race.
func TestStripedCommitOverlappingWriteSets(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewDB(WithShards(shards))
			const keys = 5
			var tuples []data.Tuple
			for i := 0; i < keys; i++ {
				tuples = append(tuples, data.Tuple{Key: data.Key(fmt.Sprintf("s%d", i)), Row: data.Scalar(0)})
			}
			db.Load(tuples...)
			var mu sync.Mutex
			committed := map[data.Key]int64{}
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						// Each txn bumps two overlapping keys.
						a := data.Key(fmt.Sprintf("s%d", (w+i)%keys))
						b := data.Key(fmt.Sprintf("s%d", (w+i+1)%keys))
						tx, _ := db.Begin(engine.SnapshotIsolation)
						av, _ := engine.GetVal(tx, a)
						bv, _ := engine.GetVal(tx, b)
						_ = engine.PutVal(tx, a, av+1)
						_ = engine.PutVal(tx, b, bv+1)
						err := tx.Commit()
						if err == nil {
							mu.Lock()
							committed[a]++
							committed[b]++
							mu.Unlock()
						} else if !errors.Is(err, engine.ErrWriteConflict) {
							t.Errorf("unexpected commit error: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for key, want := range committed {
				if got := db.ReadCommittedRow(key).Val(); got != want {
					t.Fatalf("%s = %d but %d increments committed (lost update)", key, got, want)
				}
			}
		})
	}
}

// A snapshot begun while commits are in flight must be stable: it can
// never see half of a concurrent multi-key commit. Run with -race.
func TestSnapshotNeverSeesTornCommit(t *testing.T) {
	db := NewDB(WithShards(8))
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)}, data.Tuple{Key: "y", Row: data.Scalar(0)})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer keeps x == y via paired increments
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, _ := db.Begin(engine.SnapshotIsolation)
			xv, _ := engine.GetVal(tx, "x")
			yv, _ := engine.GetVal(tx, "y")
			_ = engine.PutVal(tx, "x", xv+1)
			_ = engine.PutVal(tx, "y", yv+1)
			_ = tx.Commit() // single writer: must always succeed
		}
	}()
	for i := 0; i < 500; i++ {
		tx, _ := db.Begin(engine.SnapshotIsolation)
		xv, _ := engine.GetVal(tx, "x")
		yv, _ := engine.GetVal(tx, "y")
		_ = tx.Commit()
		if xv != yv {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: x=%d y=%d", xv, yv)
		}
	}
	close(stop)
	wg.Wait()
}
