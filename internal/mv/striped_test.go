package mv

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"isolevel/internal/data"
)

func TestOracleWatermark(t *testing.T) {
	var o Oracle
	if o.Safe() != 0 {
		t.Fatal("zero oracle watermark should be 0")
	}
	a, b, c := o.Next(), o.Next(), o.Next() // 1, 2, 3
	o.Done(b)                               // out of order: gap at 1
	if o.Safe() != 0 {
		t.Fatalf("watermark advanced over a gap: %d", o.Safe())
	}
	o.Done(a)
	if o.Safe() != 2 {
		t.Fatalf("watermark = %d, want 2 (1 and 2 installed)", o.Safe())
	}
	o.Done(c)
	if o.Safe() != 3 {
		t.Fatalf("watermark = %d, want 3", o.Safe())
	}
	if o.Current() != 3 {
		t.Fatalf("current = %d, want 3", o.Current())
	}
}

func TestOracleWatermarkConcurrent(t *testing.T) {
	var o Oracle
	var wg sync.WaitGroup
	const goroutines, per = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Done(o.Next())
			}
		}()
	}
	wg.Wait()
	if o.Safe() != TS(goroutines*per) {
		t.Fatalf("watermark = %d, want %d", o.Safe(), goroutines*per)
	}
}

func TestStoreShardCount(t *testing.T) {
	if NewStore().ShardCount() != DefaultShards {
		t.Fatalf("default shards = %d", NewStore().ShardCount())
	}
	if NewStoreShards(0).ShardCount() != 1 {
		t.Fatal("n < 1 should clamp to one shard")
	}
	if NewStoreShards(7).ShardCount() != 7 {
		t.Fatal("explicit shard count ignored")
	}
}

// Every public read path must agree across stripes regardless of shard
// count: the striping is invisible to callers.
func TestStripingInvisibleToReaders(t *testing.T) {
	for _, n := range []int{1, 2, 16, 64} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s := NewStoreShards(n)
			for i := 0; i < 40; i++ {
				s.Install(TS(i+1), i, map[data.Key]data.Row{
					data.Key(fmt.Sprintf("k%02d", i)): data.Scalar(int64(i)),
				})
			}
			if got := len(s.Keys()); got != 40 {
				t.Fatalf("keys = %d", got)
			}
			ks := s.Keys()
			for i := 1; i < len(ks); i++ {
				if ks[i-1] >= ks[i] {
					t.Fatalf("keys not sorted: %s before %s", ks[i-1], ks[i])
				}
			}
			if got := len(s.SnapshotAt(40)); got != 40 {
				t.Fatalf("snapshot size = %d", got)
			}
			if got := len(s.SnapshotAt(10)); got != 10 {
				t.Fatalf("snapshot at 10 = %d", got)
			}
			if v, ok := s.ReadAt("k05", 40); !ok || v.Row.Val() != 5 {
				t.Fatalf("ReadAt k05: %v %v", v, ok)
			}
			if s.LatestCommitTS("k39") != 40 {
				t.Fatalf("latest k39 = %d", s.LatestCommitTS("k39"))
			}
		})
	}
}

func TestLockWriteSetExclusion(t *testing.T) {
	s := NewStoreShards(4)
	keys := []data.Key{"a", "b", "c", "a"} // duplicates must not self-deadlock
	stripes := s.LockWriteSet(keys, nil)
	if !slices.IsSorted(stripes) || len(slices.Compact(slices.Clone(stripes))) != len(stripes) {
		t.Fatalf("latched stripes %v: want ascending and distinct", stripes)
	}
	started := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		close(started)
		s.UnlockWriteSet(s.LockWriteSet([]data.Key{"a"}, nil))
		close(acquired)
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // give the goroutine time to block
	select {
	case <-acquired:
		t.Fatal("overlapping write set acquired latches while held")
	default:
	}
	s.UnlockWriteSet(stripes)
	<-acquired // must now proceed

	// Empty set latches nothing.
	if got := s.LockWriteSet(nil, stripes); len(got) != 0 {
		t.Fatalf("empty write set latched %v", got)
	}
	s.UnlockWriteSet(nil)
}

// A committer that hands LockWriteSet back its buffer latches and
// unlatches its write set without allocating.
func TestLockWriteSetAllocs(t *testing.T) {
	s := NewStore()
	keys := []data.Key{"acct:000001", "acct:000002", "acct:000003", "acct:000001"}
	buf := make([]int, 0, len(keys))
	if n := testing.AllocsPerRun(100, func() {
		buf = s.LockWriteSet(keys, buf)
		s.UnlockWriteSet(buf)
	}); n != 0 {
		t.Errorf("LockWriteSet+UnlockWriteSet with a reused buffer: %.0f allocs, want 0", n)
	}
}

// Concurrent committers locking overlapping stripe sets in any key order
// must never deadlock (latches are taken in ascending stripe order). Run
// with -race.
func TestLockWriteSetNoDeadlock(t *testing.T) {
	s := NewStoreShards(8)
	keySets := [][]data.Key{
		{"a", "b", "c"},
		{"c", "b", "a"},
		{"b", "d", "a"},
		{"d", "c"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.UnlockWriteSet(s.LockWriteSet(keySets[(g+i)%len(keySets)], nil))
			}
		}(g)
	}
	wg.Wait()
}
