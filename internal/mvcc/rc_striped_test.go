package mvcc

import (
	"fmt"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// With the global commit mutex gone, disjoint writers must still never
// lose a committed update and statements must never observe a torn
// commit. Run with -race: this is the striped-commit regression test for
// the Read Consistency engine.
func TestStripedCommitDisjointWriters(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := NewDB(WithShards(shards), WithLevels(engine.ReadConsistency))
			if got := db.ShardCount(); got != shards {
				t.Fatalf("ShardCount = %d, want %d", got, shards)
			}
			const workers, iters = 6, 50
			var tuples []data.Tuple
			for i := 0; i < workers; i++ {
				tuples = append(tuples, data.Tuple{Key: data.Key(fmt.Sprintf("k%d", i)), Row: data.Scalar(0)})
			}
			db.Load(tuples...)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := data.Key(fmt.Sprintf("k%d", w))
					for i := 0; i < iters; i++ {
						tx, _ := db.Begin(engine.ReadConsistency)
						v, err := engine.GetVal(tx, key)
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						if err := engine.PutVal(tx, key, v+1); err != nil {
							t.Errorf("put: %v", err)
							return
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				key := data.Key(fmt.Sprintf("k%d", w))
				if got := db.ReadCommittedRow(key).Val(); got != iters {
					t.Fatalf("%s = %d, want %d (private key, no lost updates possible)", key, got, iters)
				}
			}
		})
	}
}

// Same-key writers serialize on the long write lock, not a commit mutex:
// the chain's ascending-commit-timestamp invariant must survive
// contention. A cursor opened before the writers start keeps its snapshot
// registered, so the whole chain is still there to inspect; without it the
// commits forget as they go and the chain ends short. Run with -race.
func TestStripedCommitSameKeyChainMonotonic(t *testing.T) {
	for _, pinned := range []bool{true, false} {
		db := NewDB(WithShards(8), WithLevels(engine.ReadConsistency))
		db.Load(data.Tuple{Key: "hot", Row: data.Scalar(0)})
		pin, _ := db.Begin(engine.ReadConsistency)
		if pinned {
			if _, err := pin.OpenCursor(predicate.True{}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					tx, _ := db.Begin(engine.ReadConsistency)
					v, _ := engine.GetVal(tx, "hot")
					_ = engine.PutVal(tx, "hot", v+1)
					_ = tx.Commit()
				}
			}()
		}
		wg.Wait()
		// One more commit with every writer gone: nothing but the pin can be
		// holding the horizon back now, so what it leaves is exact.
		tx, _ := db.Begin(engine.ReadConsistency)
		_ = engine.PutVal(tx, "hot", -1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		chain := db.Chain("hot")
		if pinned && len(chain) != 6*40+2 {
			t.Fatalf("pinned: chain length = %d, want %d", len(chain), 6*40+2)
		}
		if !pinned && len(chain) != 2 {
			t.Fatalf("unpinned: chain length = %d after %d commits, want 2: the version at the horizon and the newest", len(chain), 6*40+1)
		}
		for i := 1; i < len(chain); i++ {
			if chain[i].CommitTS <= chain[i-1].CommitTS {
				t.Fatalf("chain not ascending at %d: %d then %d", i, chain[i-1].CommitTS, chain[i].CommitTS)
			}
		}
		_ = pin.Commit()
	}
}
