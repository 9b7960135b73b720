package matrix

import (
	"fmt"
	"time"

	"isolevel/internal/ansi"
	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/history"
	"isolevel/internal/locking"
	"isolevel/internal/phenomena"
	"isolevel/internal/predicate"
	"isolevel/internal/report"
)

// --- Table 1 and Table 3 ---

// phenomenonWitness returns a minimal history exhibiting exactly the given
// broad phenomenon (and none of the stronger ones), used to probe the
// phenomenon-based level acceptors.
func phenomenonWitness(id phenomena.ID) history.History {
	switch id {
	case phenomena.P0:
		return history.MustParse("w1[x] w2[x] c1 c2")
	case phenomena.P1:
		return history.MustParse("w1[x] r2[x] c1 c2")
	case phenomena.P2:
		return history.MustParse("r1[x] w2[x] c2 c1")
	case phenomena.P3:
		return history.MustParse("r1[P] w2[y in P] c2 c1")
	}
	panic("matrix: no witness for " + string(id))
}

// RunTable1 regenerates the paper's Table 1 under the broad reading: for
// each ANSI level, a phenomenon is "Possible" iff the level's acceptor
// admits the phenomenon's witness history.
func RunTable1() *report.Table {
	t := &report.Table{
		Title:   "Table 1. ANSI SQL Isolation Levels Defined in terms of the Three Original Phenomena (regenerated, broad interpretation)",
		Headers: []string{"Isolation Level", "P1 (or A1) Dirty Read", "P2 (or A2) Fuzzy Read", "P3 (or A3) Phantom"},
	}
	cols := []phenomena.ID{phenomena.P1, phenomena.P2, phenomena.P3}
	for _, lvl := range ansi.Table1Broad {
		row := []string{lvl.Name}
		for _, col := range cols {
			if lvl.Admits(phenomenonWitness(col)) {
				row = append(row, "Possible")
			} else {
				row = append(row, "Not Possible")
			}
		}
		t.AddRow(row...)
	}
	// The paper's §3 punchlines, verified live by the acceptors:
	if ansi.AnomalySerializable.Admits(history.H5()) {
		t.Notes = append(t.Notes,
			"Note: H5 (write skew) passes ANOMALY SERIALIZABLE yet is not serializable — Table 1 is not a serializability definition.")
	}
	if ansi.ReadCommittedA1.Admits(history.H1()) && !ansi.ReadCommittedP.Admits(history.H1()) {
		t.Notes = append(t.Notes,
			"Note: H1 passes the strict (A1) reading of READ COMMITTED but not the broad (P1) reading — Remark 4.")
	}
	return t
}

// RunTable3 regenerates Table 3 (the repaired, P0-including definitions).
func RunTable3() *report.Table {
	t := &report.Table{
		Title:   "Table 3. ANSI SQL Isolation Levels Defined in terms of the four phenomena (regenerated)",
		Headers: []string{"Isolation Level", "P0 Dirty Write", "P1 Dirty Read", "P2 Fuzzy Read", "P3 Phantom"},
	}
	cols := []phenomena.ID{phenomena.P0, phenomena.P1, phenomena.P2, phenomena.P3}
	for _, lvl := range ansi.Table3 {
		row := []string{lvl.Name}
		for _, col := range cols {
			if lvl.Admits(phenomenonWitness(col)) {
				row = append(row, "Possible")
			} else {
				row = append(row, "Not Possible")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// VerifyRemark6 checks Remark 6: the phenomenon-based levels of Table 3
// coincide with the behavior of the locking engine of Table 2. For each of
// the four shared levels and each phenomenon P0–P3 it compares (a) whether
// the ansi acceptor admits the phenomenon's witness against (b) whether the
// live locking engine lets the corresponding anomaly occur (from a measured
// Table 4). Returns mismatches.
func VerifyRemark6(measured *Table4Result) []string {
	pairs := []struct {
		level engine.Level
		ansiL ansi.Level
	}{
		{engine.ReadUncommitted, ansi.ReadUncommitted},
		{engine.ReadCommitted, ansi.ReadCommitted},
		{engine.RepeatableRead, ansi.RepeatableRead},
		{engine.Serializable, ansi.Serializable},
	}
	var out []string
	for _, pr := range pairs {
		for _, col := range []phenomena.ID{phenomena.P0, phenomena.P1, phenomena.P2, phenomena.P3} {
			admits := pr.ansiL.Admits(phenomenonWitness(col))
			cell, ok := measured.Cells[pr.level][string(col)]
			if !ok {
				continue
			}
			occurs := cell.Cell != NotPossible
			if admits != occurs {
				out = append(out, fmt.Sprintf("Remark 6: %s %s: acceptor admits=%v, locking engine occurs=%v",
					pr.level, col, admits, occurs))
			}
		}
	}
	return out
}

// --- Table 2 ---

// MeasuredProtocol is the behaviorally probed lock protocol of one level.
type MeasuredProtocol struct {
	Level      engine.Level
	ReadItem   locking.Duration
	ReadPred   locking.Duration
	WriteItem  locking.Duration
	CursorRead locking.Duration
}

const probeWait = 60 * time.Millisecond

// probe runs fn on its own goroutine and reports whether it finished
// within the window. The returned channel closes when fn eventually
// returns; callers must receive from it before reusing fn's transaction.
func probe(fn func()) (blocked bool, done <-chan struct{}) {
	ch := make(chan struct{})
	go func() { fn(); close(ch) }()
	select {
	case <-ch:
		return false, ch
	case <-time.After(probeWait):
		return true, ch
	}
}

// ProbeLevel measures the lock durations of a locking level with live
// conflict probes, regenerating Table 2's entries observationally:
//
//	write-item:  does a second writer block while the first is uncommitted?
//	read-item:   does a reader block on an uncommitted write (short or
//	             long), and does a writer block after the read (long)?
//	read-pred:   the same two probes with a predicate Select vs a matching
//	             insert.
//	cursor-read: does a writer block while a cursor sits on the row, and is
//	             it released when the cursor moves (while-current) or only
//	             at commit (long)?
func ProbeLevel(level engine.Level) (MeasuredProtocol, error) {
	mp := MeasuredProtocol{Level: level}

	// Write-item duration.
	{
		db := locking.NewDB()
		db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)})
		t1, err := db.Begin(level)
		if err != nil {
			return mp, err
		}
		if err := engine.PutVal(t1, "x", 1); err != nil {
			return mp, err
		}
		t2, _ := db.Begin(level)
		blocked, done := probe(func() { _ = engine.PutVal(t2, "x", 2) })
		if blocked {
			mp.WriteItem = locking.DurLong
		} else {
			mp.WriteItem = locking.DurShort
		}
		_ = t1.Commit()
		<-done
		_ = t2.Commit()
	}

	// Read-item duration.
	{
		db := locking.NewDB()
		db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)})
		t1, _ := db.Begin(level)
		_ = engine.PutVal(t1, "x", 1)
		t2, _ := db.Begin(level)
		readBlocked, done := probe(func() { _, _ = engine.GetVal(t2, "x") })
		_ = t1.Commit()
		<-done
		_ = t2.Abort()

		db2 := locking.NewDB()
		db2.Load(data.Tuple{Key: "x", Row: data.Scalar(0)})
		r, _ := db2.Begin(level)
		if _, err := engine.GetVal(r, "x"); err != nil {
			return mp, err
		}
		w, _ := db2.Begin(level)
		writerBlocked, done2 := probe(func() { _ = engine.PutVal(w, "x", 2) })
		_ = r.Commit()
		<-done2
		_ = w.Commit()

		switch {
		case writerBlocked:
			mp.ReadItem = locking.DurLong
		case readBlocked:
			mp.ReadItem = locking.DurShort
		default:
			mp.ReadItem = locking.DurNone
		}
	}

	// Predicate read duration.
	{
		p := predicate.MustParse("active == 1")
		db := locking.NewDB()
		db.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})})
		t1, _ := db.Begin(level)
		_ = t1.Put("e9", data.NewRow(map[string]int64{"active": 1}))
		t2, _ := db.Begin(level)
		selBlocked, done := probe(func() { _, _ = t2.Select(p) })
		_ = t1.Commit()
		<-done
		_ = t2.Abort()

		db2 := locking.NewDB()
		db2.Load(data.Tuple{Key: "e1", Row: data.NewRow(map[string]int64{"active": 1})})
		r, _ := db2.Begin(level)
		if _, err := r.Select(p); err != nil {
			return mp, err
		}
		w, _ := db2.Begin(level)
		insBlocked, done2 := probe(func() { _ = w.Put("e8", data.NewRow(map[string]int64{"active": 1})) })
		_ = r.Commit()
		<-done2
		_ = w.Commit()

		switch {
		case insBlocked:
			mp.ReadPred = locking.DurLong
		case selBlocked:
			mp.ReadPred = locking.DurShort
		default:
			mp.ReadPred = locking.DurNone
		}
	}

	// Cursor read duration.
	{
		db := locking.NewDB()
		db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)}, data.Tuple{Key: "y", Row: data.Scalar(0)})
		t1, _ := db.Begin(level)
		cur, err := t1.OpenCursor(predicate.True{})
		if err != nil {
			return mp, err
		}
		if _, err := cur.Fetch(); err != nil { // positioned on x
			return mp, err
		}
		t2, _ := db.Begin(level)
		blockedWhileCurrent, done := probe(func() { _ = engine.PutVal(t2, "x", 1) })
		if blockedWhileCurrent {
			// Move the cursor off x; if t2's queued write now completes the
			// lock was while-current, otherwise it is held to commit.
			if _, err := cur.Fetch(); err != nil { // move to y
				return mp, err
			}
			select {
			case <-done:
				mp.CursorRead = locking.DurCursor
			case <-time.After(probeWait):
				mp.CursorRead = locking.DurLong
			}
			_ = t1.Commit()
			<-done
			_ = t2.Commit()
		} else {
			_ = t1.Commit()
			_ = t2.Commit()
			// No lock held while current: distinguish short (a cursor fetch
			// blocks on an uncommitted write) from none (dirty fetch).
			db2 := locking.NewDB()
			db2.Load(data.Tuple{Key: "y", Row: data.Scalar(0)})
			t3, _ := db2.Begin(level)
			_ = engine.PutVal(t3, "y", 9)
			t4, _ := db2.Begin(level)
			// Open + fetch inside the probe: at READ COMMITTED either the
			// cursor's predicate lock or the fetch's row lock blocks on the
			// uncommitted write; at the no-read-lock levels neither does.
			fetchBlocked, done2 := probe(func() {
				c4, err := t4.OpenCursor(predicate.KeyEq{Key: "y"})
				if err == nil {
					_, _ = c4.Fetch()
				}
			})
			_ = t3.Commit()
			<-done2
			_ = t4.Abort()
			if fetchBlocked {
				mp.CursorRead = locking.DurShort
			} else {
				mp.CursorRead = locking.DurNone
			}
		}
	}

	return mp, nil
}

// RunTable2 regenerates Table 2: the declared protocol (the engine's
// Protocols map, i.e. the paper's table verbatim) side by side with the
// behaviorally measured durations. The returned mismatches are empty when
// every declared duration is observed live.
func RunTable2() (*report.Table, []string, error) {
	t := &report.Table{
		Title: "Table 2. Degrees of Consistency and Locking Isolation Levels (declared vs measured)",
		Headers: []string{"Consistency Level", "Read locks on items", "Read locks on predicates",
			"Write locks", "Cursor read locks", "Probe result"},
	}
	var mismatches []string
	for _, lvl := range locking.LockingLevels {
		decl := locking.Protocols[lvl]
		meas, err := ProbeLevel(lvl)
		if err != nil {
			return nil, nil, err
		}
		status := "verified"
		if meas.ReadItem != decl.ReadItem || meas.ReadPred != decl.ReadPred ||
			meas.WriteItem != decl.WriteItem || meas.CursorRead != decl.CursorRead {
			status = fmt.Sprintf("MISMATCH: measured {item:%s pred:%s write:%s cursor:%s}",
				meas.ReadItem, meas.ReadPred, meas.WriteItem, meas.CursorRead)
			mismatches = append(mismatches, fmt.Sprintf("%s: %s", lvl, status))
		}
		t.AddRow(lvl.String(), decl.ReadItem.String(), decl.ReadPred.String(),
			decl.WriteItem.String(), decl.CursorRead.String(), status)
	}
	return t, mismatches, nil
}
