package deps

import (
	"math/rand"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/history"
)

func TestConflictsBasic(t *testing.T) {
	h := history.MustParse("w1[x] r2[x] w2[x] c1 c2")
	cs := Conflicts(h)
	// w1-r2 (wr), w1-w2 (ww), r2 after w1... also r2[x]-? r2 and w2 same tx: no.
	want := map[ConflictKind]int{WR: 1, WW: 1}
	got := map[ConflictKind]int{}
	for _, c := range cs {
		got[c.Kind]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("conflicts %s: got %d want %d (all: %v)", k, got[k], n, cs)
		}
	}
}

func TestConflictsSameTxnIgnored(t *testing.T) {
	h := history.MustParse("w1[x] r1[x] w1[x] c1")
	if cs := Conflicts(h); len(cs) != 0 {
		t.Errorf("same-tx actions conflicted: %v", cs)
	}
}

func TestPredicateConflicts(t *testing.T) {
	h := history.MustParse("r1[P] w2[y in P] c1 c2")
	cs := Conflicts(h)
	found := false
	for _, c := range cs {
		if c.Kind == PredRW && c.FromTx == 1 && c.ToTx == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("predicate rw conflict missing: %v", cs)
	}
}

func TestPredicateWRConflict(t *testing.T) {
	h := history.MustParse("w1[y in P] r2[P] c1 c2")
	cs := Conflicts(h)
	found := false
	for _, c := range cs {
		if c.Kind == PredWR && c.FromTx == 1 && c.ToTx == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("predicate wr conflict missing: %v", cs)
	}
}

func TestCursorOpsConflictLikePlainOps(t *testing.T) {
	h := history.MustParse("rc1[x] w2[x] c1 c2")
	cs := Conflicts(h)
	if len(cs) != 1 || cs[0].Kind != RW {
		t.Errorf("cursor read should rw-conflict: %v", cs)
	}
}

// H1 is non-serializable: T1 -> T2 (wr on x) and T2 -> T1 (rw on y).
func TestH1NotSerializable(t *testing.T) {
	h := history.H1()
	g := BuildGraph(h)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatalf("H1 graph edges wrong:\n%s", g)
	}
	if Serializable(h) {
		t.Error("H1 must not be serializable")
	}
	if c := g.Cycle(); c == nil {
		t.Error("H1 graph must have a cycle")
	}
}

func TestH2NotSerializable(t *testing.T) {
	if Serializable(history.H2()) {
		t.Error("H2 must not be serializable (inconsistent analysis)")
	}
}

func TestH3NotSerializable(t *testing.T) {
	// H3's cycle runs through the predicate conflict: T1 r[P] -> T2 w[y in P]
	// (rw) and T2 w[z] -> T1 r[z] (wr).
	if Serializable(history.H3()) {
		t.Error("H3 must not be serializable")
	}
}

func TestH4NotSerializable(t *testing.T) {
	if Serializable(history.H4()) {
		t.Error("H4 (lost update) must not be serializable")
	}
}

func TestH5NotSerializable(t *testing.T) {
	if Serializable(history.H5()) {
		t.Error("H5 (write skew) must not be serializable")
	}
}

func TestH1SISVIsSerializable(t *testing.T) {
	if !Serializable(history.H1SISV()) {
		t.Error("H1.SI.SV must be serializable (paper §4.2)")
	}
	order := EquivalentSerialOrder(history.H1SISV())
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("H1.SI.SV serial order = %v, want [2 1] (T2 then T1)", order)
	}
}

func TestSerialHistorySerializable(t *testing.T) {
	h := history.MustParse("r1[x] w1[y] c1 r2[y] w2[x] c2")
	if !Serializable(h) {
		t.Error("serial history must be serializable")
	}
	if order := EquivalentSerialOrder(h); len(order) != 2 || order[0] != 1 {
		t.Errorf("order = %v", order)
	}
}

// Aborted transactions do not appear in the dependency graph (§2.1: "The
// actions of committed transactions in the history are represented as
// graph nodes").
func TestAbortedTxnsExcluded(t *testing.T) {
	h := history.MustParse("w1[x] r2[x] w2[x] a1 c2")
	g := BuildGraph(h)
	if len(g.Nodes) != 1 || g.Nodes[0] != 2 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	if !Serializable(h) {
		t.Error("history whose only cycle runs through an aborted txn is serializable")
	}
}

func TestEquivalent(t *testing.T) {
	a := history.MustParse("r1[x] w2[x] c1 c2")
	b := history.MustParse("r1[x] c1 w2[x] c2")
	if !Equivalent(a, b) {
		t.Error("same dependency graph, same committed txns: equivalent")
	}
	c := history.MustParse("w2[x] r1[x] c1 c2") // reversed dataflow
	if Equivalent(a, c) {
		t.Error("reversed conflict direction is not equivalent")
	}
	d := history.MustParse("r1[x] c1")
	if Equivalent(a, d) {
		t.Error("different committed sets are not equivalent")
	}
}

func TestCycleReporting(t *testing.T) {
	h := history.H1()
	c := BuildGraph(h).Cycle()
	if len(c) < 3 || c[0] != c[len(c)-1] {
		t.Fatalf("cycle = %v", c)
	}
	seen := map[int]bool{}
	for _, tx := range c[:len(c)-1] {
		if seen[tx] {
			t.Fatalf("cycle repeats node: %v", c)
		}
		seen[tx] = true
	}
}

func TestTopoOrderNilOnCycle(t *testing.T) {
	if order := BuildGraph(history.H1()).TopoOrder(); order != nil {
		t.Errorf("cyclic graph topo order = %v", order)
	}
}

func TestGraphString(t *testing.T) {
	s := BuildGraph(history.H1()).String()
	if s == "" {
		t.Error("graph string empty")
	}
}

// --- MV → SV mapping (§4.2). ---

func TestH1SIMapsToH1SISV(t *testing.T) {
	txns := FromMVHistory(history.H1SI())
	sv := MapToSV(txns)
	want := history.H1SISV().String()
	if sv.String() != want {
		t.Fatalf("MapToSV(H1.SI) =\n  %s\nwant\n  %s", sv.String(), want)
	}
	if !SISerializable(txns) {
		t.Error("H1.SI must map to a serializable SV history (paper §4.2)")
	}
}

// The write-skew execution under SI maps to a non-serializable SV history.
func TestWriteSkewSINotSerializable(t *testing.T) {
	txns := []MVTxn{
		{Tx: 1, Start: 1, Commit: 10, Committed: true,
			Reads:  history.MustParse("r1[x=50] r1[y=50]"),
			Writes: history.MustParse("w1[y=-40]"),
		},
		{Tx: 2, Start: 2, Commit: 11, Committed: true,
			Reads:  history.MustParse("r2[x=50] r2[y=50]"),
			Writes: history.MustParse("w2[x=-40]"),
		},
	}
	if SISerializable(txns) {
		t.Error("write-skew SI execution must not be serializable")
	}
	sv := MapToSV(txns)
	g := BuildGraph(sv)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Errorf("write-skew SV mapping should have a 2-cycle:\n%s", g)
	}
}

// Read-only SI transactions always map into serializable positions
// relative to a single writer.
func TestReadOnlySnapshotSerializable(t *testing.T) {
	txns := []MVTxn{
		{Tx: 1, Start: 1, Commit: 10, Committed: true,
			Reads:  history.MustParse("r1[x=0]"),
			Writes: history.MustParse("w1[x=1] w1[y=1]"),
		},
		{Tx: 2, Start: 5, Commit: 6, Committed: true,
			Reads: history.MustParse("r2[x=0] r2[y=0]"),
		},
	}
	if !SISerializable(txns) {
		t.Error("snapshot reader concurrent with one writer must be serializable")
	}
}

func TestAbortedMVTxnDropsWrites(t *testing.T) {
	txns := []MVTxn{
		{Tx: 1, Start: 1, Commit: 4, Committed: false,
			Reads:  history.MustParse("r1[x=0]"),
			Writes: history.MustParse("w1[x=1]"),
		},
		{Tx: 2, Start: 2, Commit: 3, Committed: true,
			Reads:  history.MustParse("r2[x=0]"),
			Writes: history.MustParse("w2[x=2]"),
		},
	}
	sv := MapToSV(txns)
	for _, op := range sv {
		if op.Tx == 1 && op.Kind.IsWrite() {
			t.Fatalf("aborted txn's write leaked into SV history: %s", sv)
		}
	}
	if !Serializable(sv) {
		t.Error("after dropping aborted writes the history is serializable")
	}
}

func TestFromMVHistoryTimestamps(t *testing.T) {
	txns := FromMVHistory(history.H1SI())
	byTx := map[int]MVTxn{}
	for _, tx := range txns {
		byTx[tx.Tx] = tx
	}
	t1, t2 := byTx[1], byTx[2]
	if !(t1.Start < t2.Start && t2.Start < t2.Commit && t2.Commit < t1.Commit) {
		t.Fatalf("timestamp order wrong: T1=[%d,%d] T2=[%d,%d]", t1.Start, t1.Commit, t2.Start, t2.Commit)
	}
	if !t1.Committed || !t2.Committed {
		t.Fatal("both committed")
	}
	if len(t1.Reads) != 2 || len(t1.Writes) != 2 || len(t2.Reads) != 2 || len(t2.Writes) != 0 {
		t.Fatalf("ops split wrong: %+v", txns)
	}
}

// --- Properties. ---

// The fundamental check behind the Serializability Theorem: a serial
// history is conflict-serializable, and its topo order is consistent with
// its execution order.
func TestRandomSerialHistoriesSerializableProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	items := []data.Key{"x", "y", "z"}
	for i := 0; i < 300; i++ {
		var h history.History
		perm := r.Perm(4)
		for _, idx := range perm {
			tx := idx + 1
			for k := 0; k < 1+r.Intn(4); k++ {
				kind := history.Read
				if r.Intn(2) == 0 {
					kind = history.Write
				}
				h = append(h, history.NewOp(tx, kind, items[r.Intn(3)]))
			}
			h = append(h, history.Op{Tx: tx, Kind: history.Commit, Version: -1})
		}
		if !Serializable(h) {
			t.Fatalf("serial history not serializable: %s", h)
		}
	}
}

// Equivalence is preserved when swapping adjacent non-conflicting actions.
func TestSwapNonConflictingPreservesEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	items := []data.Key{"x", "y", "z"}
	for i := 0; i < 300; i++ {
		var h history.History
		for k := 0; k < 8; k++ {
			tx := 1 + r.Intn(3)
			kind := history.Read
			if r.Intn(2) == 0 {
				kind = history.Write
			}
			h = append(h, history.NewOp(tx, kind, items[r.Intn(3)]))
		}
		for tx := 1; tx <= 3; tx++ {
			h = append(h, history.Op{Tx: tx, Kind: history.Commit, Version: -1})
		}
		// Pick an adjacent pair that does not conflict and is not ordered by
		// being in the same transaction; swap; equivalence must hold.
		for j := 0; j+1 < len(h); j++ {
			a, b := h[j], h[j+1]
			if a.Tx == b.Tx || a.Kind.IsTerminal() || b.Kind.IsTerminal() {
				continue
			}
			if _, conflicting := conflictBetween(a, b); conflicting {
				continue
			}
			swapped := append(history.History{}, h...)
			swapped[j], swapped[j+1] = swapped[j+1], swapped[j]
			if !Equivalent(h, swapped) {
				t.Fatalf("swap of non-conflicting ops changed equivalence:\n%s\n%s", h, swapped)
			}
			break
		}
	}
}

// MapToSV keeps exactly the committed transactions' writes and everyone's
// reads.
func TestMapToSVStructureProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	items := []data.Key{"x", "y", "z"}
	for i := 0; i < 200; i++ {
		var txns []MVTxn
		ts := int64(0)
		for tx := 1; tx <= 3; tx++ {
			start := ts
			ts++
			var reads, writes history.History
			for k := 0; k < r.Intn(3); k++ {
				reads = append(reads, history.NewOp(tx, history.Read, items[r.Intn(3)]))
			}
			for k := 0; k < r.Intn(3); k++ {
				writes = append(writes, history.NewOp(tx, history.Write, items[r.Intn(3)]))
			}
			commit := ts
			ts++
			txns = append(txns, MVTxn{Tx: tx, Start: start, Commit: commit,
				Committed: r.Intn(4) != 0, Reads: reads, Writes: writes})
		}
		sv := MapToSV(txns)
		if err := sv.Validate(); err != nil {
			t.Fatalf("mapped history invalid: %v\n%s", err, sv)
		}
		for _, txn := range txns {
			ops := sv.OpsOf(txn.Tx)
			var reads, writes int
			for _, op := range ops {
				if op.Kind.IsRead() {
					reads++
				}
				if op.Kind.IsWrite() {
					writes++
				}
			}
			if reads != len(txn.Reads) {
				t.Fatalf("reads lost for T%d", txn.Tx)
			}
			wantWrites := len(txn.Writes)
			if !txn.Committed {
				wantWrites = 0
			}
			if writes != wantWrites {
				t.Fatalf("writes wrong for T%d: got %d want %d", txn.Tx, writes, wantWrites)
			}
		}
	}
}
