package mvcc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// fire is the write traffic of the readers-under-fire test: writers that
// increment two hot keys, which are therefore always live, and delete and
// re-insert churn keys of their own, thousands of times, through both
// commit paths.
type fire struct {
	db      *DB
	writers int
	iters   int
}

var hotKeys = []data.Key{"hot:0", "hot:1"}

func churnKey(writer, i int) data.Key { return data.Key(fmt.Sprintf("churn:%d:%d", writer, i%4)) }

func (f fire) load() {
	for _, k := range hotKeys {
		f.db.Load(data.Tuple{Key: k, Row: data.Scalar(0)})
	}
	for w := 0; w < f.writers; w++ {
		for i := 0; i < 4; i++ {
			f.db.Load(data.Tuple{Key: churnKey(w, i), Row: data.Scalar(int64(i))})
		}
	}
}

// run commits f.iters transactions on each writer, and four more that only
// delete, and returns when all are done. Every transaction rewrites a hot
// key and flips one of the writer's churn keys between present and
// deleted; the run ends with every churn key deleted.
func (f fire) run(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < f.writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			level := []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency}[w%2]
			for i := 0; i < f.iters+4; i++ {
				hot, churn := hotKeys[(w+i)%len(hotKeys)], churnKey(w, i)
				for {
					tx, err := f.db.Begin(level)
					if err != nil {
						t.Error(err)
						return
					}
					err = f.step(tx, hot, churn, i < f.iters)
					if err == nil {
						break
					}
					if !errors.Is(err, engine.ErrWriteConflict) {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// step is one writer transaction: increment hot, then delete churn if it
// is there, else (when reinsert is set) insert it.
func (f fire) step(tx engine.Tx, hot, churn data.Key, reinsert bool) error {
	v, err := engine.GetVal(tx, hot)
	if err == nil {
		err = engine.PutVal(tx, hot, v+1)
	}
	if err == nil {
		switch _, getErr := tx.Get(churn); {
		case getErr == nil:
			err = tx.Delete(churn)
		case !errors.Is(getErr, engine.ErrNotFound):
			err = getErr
		case reinsert:
			err = engine.PutVal(tx, churn, v)
		}
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// turnHands commits enough fresh-key inserts and deletes for the clock hand
// of every stripe to go round several times: whatever the horizon allows
// to be forgotten is forgotten when it returns.
func (f fire) turnHands(t *testing.T) {
	for i := 0; i < 64; i++ {
		for _, insert := range []bool{true, false} {
			tx, _ := f.db.Begin(engine.SnapshotIsolation)
			k := data.Key(fmt.Sprintf("fresh:%03d", i))
			if insert {
				_ = engine.PutVal(tx, k, 1)
			} else {
				_ = tx.Delete(k)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReadersUnderFire: forgetting is paid for inside the writers' commits,
// so every kind of reader is exercised while they run. Run with -race at
// GOMAXPROCS 2 and 4.
//
// An SI reader repeats the same Select and Gets for its whole life and its
// answers never change. RC sessions issue Get and Select against keys that
// are rewritten constantly and never deleted, and no statement ever reports
// one missing — which is what happens if a statement picks its timestamp
// and reads at it unregistered, and two commits in between forget the
// version it was going to see. A cursor opened before a row is deleted —
// and its chain, given the chance, reclaimed — still gets ErrRowChanged.
// After every reader has ended nothing holds the horizon back.
func TestReadersUnderFire(t *testing.T) {
	f := fire{db: NewDB(WithShards(4)), writers: 4, iters: 1500}
	f.load()
	db := f.db
	f.run(t) // leave pruned chains and reclaimed keys behind before anyone reads

	// underFire runs read concurrently with the writers until they finish,
	// and once more after.
	underFire := func(read func() bool) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.run(t)
		}()
		for stop := false; !stop; {
			select {
			case <-done:
				stop = true
			default:
			}
			if !read() {
				<-done
				return
			}
		}
	}

	t.Run("SI", func(t *testing.T) {
		// Re-insert a churn key so the snapshot holds rows that the writers
		// will delete, re-insert and delete again.
		seed, _ := db.Begin(engine.SnapshotIsolation)
		_ = engine.PutVal(seed, churnKey(0, 0), 42)
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		si, _ := db.Begin(engine.SnapshotIsolation)
		keys := append([]data.Key{churnKey(0, 0), churnKey(1, 1), "never"}, hotKeys...)
		read := func() string {
			sel, err := si.Select(predicate.True{})
			out := fmt.Sprint(sel, err)
			for _, k := range keys {
				row, err := si.Get(k)
				out += fmt.Sprint(" ", k, row, err)
			}
			return out
		}
		want := read()
		reads := 0
		underFire(func() bool {
			reads++
			if got := read(); got != want {
				t.Errorf("SI read %d moved:\n got %s\nwant %s", reads, got, want)
				return false
			}
			return true
		})
		if db.oracle.Horizon() != si.(*SITx).StartTS() {
			t.Errorf("Horizon = %d with an SI transaction open at %d", db.oracle.Horizon(), si.(*SITx).StartTS())
		}
		if err := si.Commit(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("RC", func(t *testing.T) {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					rc, _ := db.Begin(engine.ReadConsistency)
					for _, k := range hotKeys {
						if _, err := rc.Get(k); err != nil {
							t.Errorf("RC Get(%s), transaction %d: %v — the key is never deleted", k, n, err)
							return
						}
					}
					sel, err := rc.Select(predicate.KeyPrefix{Prefix: "hot:"})
					if err != nil || len(sel) != len(hotKeys) {
						t.Errorf("RC Select(hot:*), transaction %d: %v, %v — want the %d keys that are never deleted", n, sel, err, len(hotKeys))
						return
					}
					if row := db.ReadCommittedRow(hotKeys[n%len(hotKeys)]); row == nil {
						t.Errorf("ReadCommittedRow(%s): missing", hotKeys[n%len(hotKeys)])
						return
					}
					_ = rc.Commit()
				}
			}()
		}
		f.run(t)
		close(stop)
		wg.Wait()
	})

	t.Run("cursor", func(t *testing.T) {
		victim := churnKey(0, 0)
		seed, _ := db.Begin(engine.ReadConsistency)
		_ = engine.PutVal(seed, victim, 42)
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		rc, _ := db.Begin(engine.ReadConsistency)
		cur, err := rc.OpenCursor(predicate.KeyEq{Key: victim})
		if err != nil {
			t.Fatal(err)
		}
		if tp, err := cur.Fetch(); err != nil || tp.Key != victim {
			t.Fatalf("Fetch = %v, %v", tp, err)
		}
		// The writers delete the row, re-insert it, and end with it deleted;
		// then every stripe's hand goes round, so a chain with nobody
		// registered below its tombstone is gone.
		f.run(t)
		f.turnHands(t)
		if row := db.ReadCommittedRow(victim); row != nil {
			t.Fatalf("%s = %v after the writers, want it deleted", victim, row)
		}
		if err := cur.UpdateCurrent(data.Scalar(7)); !errors.Is(err, engine.ErrRowChanged) {
			t.Errorf("UpdateCurrent on a row deleted after the cursor opened: %v, want ErrRowChanged", err)
		}
		if n := len(db.Chain(victim)); n == 0 {
			t.Errorf("%s was forgotten under an open cursor", victim)
		}
		_ = cur.Close()
		_ = cur.Close() // releases once
		if err := rc.Commit(); err != nil {
			t.Fatal(err)
		}
	})

	if h, s, n := db.oracle.Horizon(), db.oracle.Safe(), db.oracle.ActiveSnapshots(); h != s || n != 0 {
		t.Errorf("after every reader ended: Horizon %d, Safe %d, %d snapshots registered", h, s, n)
	}
	// With nobody reading, what the cursor was holding goes.
	f.turnHands(t)
	if n := len(db.Chain(churnKey(0, 0))); n != 0 {
		t.Errorf("%s still has %d versions with nothing registered and the hand gone round", churnKey(0, 0), n)
	}
}

// TestEveryWayOutReleasesTheSnapshot: each terminal transition of either
// transaction kind ends its registrations exactly once, and a second
// Commit or Abort ends nothing more.
func TestEveryWayOutReleasesTheSnapshot(t *testing.T) {
	db := NewDB()
	load(db)
	active := func(want int, when string) {
		t.Helper()
		if got := db.oracle.ActiveSnapshots(); got != want {
			t.Fatalf("%s: %d snapshots registered, want %d", when, got, want)
		}
	}
	si := func() engine.Tx { tx, _ := db.Begin(engine.SnapshotIsolation); return tx }

	ro := si()
	active(1, "SI begun")
	_ = ro.Commit()
	_ = ro.Commit()
	_ = ro.Abort()
	active(0, "read-only SI commit")

	w1, w2 := si(), si()
	_ = engine.PutVal(w1, "x", 10)
	_ = engine.PutVal(w2, "x", 20)
	active(2, "two SI writers")
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}
	active(1, "SI commit")
	if err := w2.Commit(); !errors.Is(err, engine.ErrWriteConflict) {
		t.Fatalf("second committer got %v", err)
	}
	_ = w2.Abort()
	active(0, "first-committer-wins abort")

	ab := si()
	_ = ab.Abort()
	_ = ab.Abort()
	active(0, "SI abort")

	asof, err := db.BeginAsOf(db.CurrentTS())
	if err != nil {
		t.Fatal(err)
	}
	active(1, "BeginAsOf")
	_ = asof.Abort()
	active(0, "as-of abort")

	rc, _ := db.Begin(engine.ReadConsistency)
	_, _ = rc.Get("x")
	_, _ = rc.Select(predicate.True{})
	_ = engine.PutVal(rc, "y", 5)
	active(0, "RC between statements")
	c1, _ := rc.OpenCursor(predicate.True{})
	c2, _ := rc.OpenCursor(predicate.True{})
	active(2, "two RC cursors open")
	_, _ = c1.Fetch()
	_ = c1.UpdateCurrent(data.Scalar(3))
	_ = c1.Close()
	active(1, "one cursor closed")
	if err := rc.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = c2.Close()
	active(0, "RC commit with a cursor open")

	rc2, _ := db.Begin(engine.ReadConsistency)
	_, _ = rc2.OpenCursor(predicate.True{})
	_ = rc2.Abort()
	active(0, "RC abort with a cursor open")
	if h, s := db.oracle.Horizon(), db.oracle.Safe(); h != s {
		t.Fatalf("Horizon %d, Safe %d with nothing registered", h, s)
	}
}

// TestTransferShapeKeepsTwoVersions: at the shape of the benchmark's
// embed_transfer_mv row — 10,000 accounts, two reads and two writes per
// transaction, nobody reading history — every chain ends at no more than
// two versions: the one at the horizon and the newest. (A chain can pass
// two only while another open snapshot predates its last two writes.)
func TestTransferShapeKeepsTwoVersions(t *testing.T) {
	const accounts, txns = 10000, 30000
	db := NewDB()
	rows := make([]data.Tuple, accounts)
	for i := range rows {
		rows[i] = data.Tuple{Key: data.Key(fmt.Sprintf("acct:%06d", i)), Row: data.Scalar(1000)}
	}
	db.Load(rows...)
	rng := rand.New(rand.NewSource(1))
	written := accounts
	for i := 0; i < txns; i++ {
		a, b := rows[rng.Intn(accounts)].Key, rows[rng.Intn(accounts)].Key
		if a == b {
			continue
		}
		written += 2
		tx, _ := db.Begin(engine.SnapshotIsolation)
		va, _ := engine.GetVal(tx, a)
		vb, _ := engine.GetVal(tx, b)
		_ = engine.PutVal(tx, a, va-1)
		_ = engine.PutVal(tx, b, vb+1)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	versions := 0
	for _, r := range rows {
		n := len(db.Chain(r.Key))
		if n > 2 {
			t.Fatalf("%s holds %d versions after %d transfers, want at most 2", r.Key, n, txns)
		}
		versions += n
		sum += db.ReadCommittedRow(r.Key).Val()
	}
	if sum != accounts*1000 {
		t.Fatalf("balances sum to %d, want %d", sum, accounts*1000)
	}
	if reclaimed, _ := db.store.Reclaimed(); int(reclaimed) != written-versions {
		t.Errorf("%d versions written, %d kept, %d reclaimed", written, versions, reclaimed)
	}
}
