package mv

import (
	"sync"
	"testing"
	"testing/quick"

	"isolevel/internal/data"
	"isolevel/internal/predicate"
)

func TestOracleMonotonic(t *testing.T) {
	var o Oracle
	prev := o.Current()
	for i := 0; i < 100; i++ {
		ts := o.Next()
		if ts <= prev {
			t.Fatalf("non-monotonic: %d after %d", ts, prev)
		}
		prev = ts
	}
}

func TestOracleConcurrentUnique(t *testing.T) {
	var o Oracle
	var mu sync.Mutex
	seen := map[TS]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ts := o.Next()
				mu.Lock()
				if seen[ts] {
					t.Errorf("duplicate ts %d", ts)
				}
				seen[ts] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestReadAtVisibility(t *testing.T) {
	s := NewStore()
	s.Install(5, 1, map[data.Key]data.Row{"x": data.Scalar(50)})
	s.Install(9, 2, map[data.Key]data.Row{"x": data.Scalar(90)})

	if _, ok := s.ReadAt("x", 4); ok {
		t.Fatal("version visible before first commit")
	}
	if v, ok := s.ReadAt("x", 5); !ok || v.Row.Val() != 50 {
		t.Fatalf("at ts 5: %v %v", v, ok)
	}
	if v, ok := s.ReadAt("x", 8); !ok || v.Row.Val() != 50 {
		t.Fatalf("at ts 8: %v %v", v, ok)
	}
	if v, ok := s.ReadAt("x", 9); !ok || v.Row.Val() != 90 {
		t.Fatalf("at ts 9: %v %v", v, ok)
	}
	if v, ok := s.ReadAt("x", 100); !ok || v.Row.Val() != 90 {
		t.Fatalf("at ts 100: %v %v", v, ok)
	}
}

func TestTombstoneVisibility(t *testing.T) {
	s := NewStore()
	s.Install(1, 1, map[data.Key]data.Row{"x": data.Scalar(1)})
	s.Install(2, 2, map[data.Key]data.Row{"x": nil}) // delete
	if _, ok := s.ReadAt("x", 1); !ok {
		t.Fatal("pre-delete version invisible")
	}
	if _, ok := s.ReadAt("x", 2); ok {
		t.Fatal("tombstone visible as a row")
	}
	if s.VersionCount("x") != 2 {
		t.Fatalf("version count = %d", s.VersionCount("x"))
	}
}

func TestLatestCommitTS(t *testing.T) {
	s := NewStore()
	if s.LatestCommitTS("x") != 0 {
		t.Fatal("unwritten key should report 0")
	}
	s.Install(3, 1, map[data.Key]data.Row{"x": data.Scalar(1)})
	s.Install(7, 2, map[data.Key]data.Row{"x": data.Scalar(2)})
	if s.LatestCommitTS("x") != 7 {
		t.Fatalf("latest = %d", s.LatestCommitTS("x"))
	}
}

func TestSelectAt(t *testing.T) {
	s := NewStore()
	s.Install(1, 1, map[data.Key]data.Row{
		"e1": data.NewRow(map[string]int64{"active": 1}), "e2": data.NewRow(map[string]int64{"active": 0}),
	})
	s.Install(5, 2, map[data.Key]data.Row{"e3": data.NewRow(map[string]int64{"active": 1})})
	p := predicate.MustParse("active == 1")
	if got := s.SelectAt(p, 1); len(got) != 1 || got[0].Key != "e1" {
		t.Fatalf("at ts 1: %v", got)
	}
	if got := s.SelectAt(p, 5); len(got) != 2 {
		t.Fatalf("at ts 5: %v", got)
	}
	if got := s.SnapshotAt(5); len(got) != 3 {
		t.Fatalf("snapshot at 5: %v", got)
	}
}

func TestLoadAndKeys(t *testing.T) {
	s := NewStore()
	var o Oracle
	s.Load(o.Next(), data.Tuple{Key: "b", Row: data.Scalar(2)}, data.Tuple{Key: "a", Row: data.Scalar(1)})
	ks := s.Keys()
	if len(ks) != 2 || ks[0] != "a" || ks[1] != "b" {
		t.Fatalf("keys = %v", ks)
	}
}

func TestChainCopies(t *testing.T) {
	s := NewStore()
	s.Install(1, 7, map[data.Key]data.Row{"x": data.Scalar(1)})
	c := s.Chain("x")
	if len(c) != 1 || c[0].Writer != 7 {
		t.Fatalf("chain = %v", c)
	}
	c[0] = Version{CommitTS: 1, Row: data.Scalar(99)}
	if v, _ := s.ReadAt("x", 1); v.Row.Val() != 1 || v.Writer != 7 {
		t.Fatal("Chain leaked internal storage")
	}
}

// Rows are immutable values, so the store keeps the row Install or Load
// was given, and ReadAt, SelectAt and Chain hand that same row out.
func TestReadAtSharesStoredRow(t *testing.T) {
	s := NewStore()
	row := data.Scalar(1)
	s.Install(1, 1, map[data.Key]data.Row{"x": row})
	loaded := data.Scalar(2)
	s.Load(1, data.Tuple{Key: "y", Row: loaded})
	if v, _ := s.ReadAt("x", 1); v.Row != row {
		t.Error("ReadAt copied the installed row")
	}
	if got := s.SelectAt(predicate.True{}, 1); len(got) != 2 || got[0].Row != row || got[1].Row != loaded {
		t.Errorf("SelectAt = %v: want the stored rows themselves", got)
	}
	if c := s.Chain("y"); len(c) != 1 || c[0].Row != loaded {
		t.Errorf("Chain = %v: want the loaded row itself", c)
	}
}

// Property: visibility is monotone — a version visible at ts is visible at
// every ts' >= ts until a newer version covers it; reading at increasing
// timestamps never goes back to an older version.
func TestVisibilityMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewStore()
		ts := TS(0)
		var stamps []TS
		for i, v := range raw {
			if len(stamps) > 8 {
				break
			}
			ts += TS(v%3 + 1)
			stamps = append(stamps, ts)
			s.Install(ts, i, map[data.Key]data.Row{"x": data.Scalar(int64(i))})
		}
		prev := int64(-1)
		for q := TS(0); q <= ts+2; q++ {
			if v, ok := s.ReadAt("x", q); ok {
				if v.Row.Val() < prev {
					return false
				}
				prev = v.Row.Val()
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
