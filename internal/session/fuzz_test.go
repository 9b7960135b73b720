package session_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/predicate"
	"isolevel/internal/session"
)

// fuzzSeeds is FuzzExec's seed corpus: one script per verb of the package
// comment, then the malformed variants a hostile client sends. A script is
// newline-separated statements run on one session, so transaction state
// carries from line to line.
var fuzzSeeds = []string{
	"BEGIN\nCOMMIT",
	"BEGIN ISOLATION LEVEL REPEATABLE READ\nGET k03\nCOMMIT",
	"SET TRANSACTION ISOLATION LEVEL READ COMMITTED\nLEVEL",
	"GET k01",
	"SET k01 7",
	"DEL k02",
	"SCAN k01 k05",
	"BEGIN\nSET k09 1\nSCAN k00 k99\nDEL k04\nABORT",
	"BEGIN\nSET k01 1\nROLLBACK",
	"LEVEL",
	"PING",
	"QUIT",
	// Malformed.
	"GET",
	"SET k01",
	"DEL",
	"SCAN k01",
	"SET k01 seven",
	"SET k01 99999999999999999999",
	"SCAN k05 k01",
	"BEGIN ISOLATION LEVEL NONSENSE",
	"BEGIN ISOLATION",
	"SET TRANSACTION ISOLATION LEVEL",
	"BEGIN\nBEGIN",
	"BEGIN\nSET TRANSACTION ISOLATION LEVEL SERIALIZABLE",
	"COMMIT\nABORT",
	"BEGIN\nQUIT\nGET k01",
	"FROB k01",
	"get k01\n\n  \nset\tk01\t2",
	"GET " + strings.Repeat("k", 64<<10),
	"BEGIN\nSET " + strings.Repeat("k", 64<<10) + " 1\nSCAN a z",
}

// FuzzExec drives Session.Exec with arbitrary statement scripts against a
// small preloaded keyrange engine. No input may panic the session, every
// reply is a well-formed wire reply, a -RETRY reply has already rolled the
// transaction back, and Close leaves no lock behind. (Under -fuzz, pass
// -fuzzminimizetime 1s: minimizing a 64 KiB seed byte by byte otherwise
// stalls the workers for most of a short run.)
func FuzzExec(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		db := locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange), locking.WithShards(4))
		for i := 0; i < 8; i++ {
			db.Load(data.Tuple{Key: data.Key(fmt.Sprintf("k%02d", i)), Row: data.Scalar(int64(i))})
		}
		s := session.New(db, engine.Serializable, nil)
		var named []data.Key
		for _, line := range strings.Split(script, "\n") {
			reply, _ := s.Exec(line)
			if reply != "" && !strings.ContainsRune("+-:$*", rune(reply[0])) {
				t.Fatalf("Exec(%q) = %q: not a wire reply", line, reply)
			}
			if strings.HasPrefix(reply, "-RETRY") && s.InTx() {
				t.Fatalf("Exec(%q) = %q with the transaction still open", line, reply)
			}
			if fields := strings.Fields(line); len(fields) > 1 {
				named = append(named, data.Key(fields[1]))
			}
		}
		s.Close()
		if s.InTx() {
			t.Fatal("InTx() = true after Close")
		}

		// One session ran one transaction at a time, so nothing ever had a
		// holder to wait for — and if Close released everything, neither
		// does a transaction that now locks the whole key space and then
		// every row and every key the script named, exclusively.
		done := make(chan error, 1)
		go func() { done <- lockEverything(db, named) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a fresh transaction blocked after Close: the session left a lock holder behind")
		}
		if st := db.LockStats(); st.Waits != 0 || st.Deadlocks != 0 {
			t.Fatalf("LockStats after Close: waits=%d deadlocks=%d, want 0 (a wait needs a holder)", st.Waits, st.Deadlocks)
		}
	})
}

// lockEverything takes, in one SERIALIZABLE transaction, the whole-space
// range lock and an exclusive lock on every row and every named key, then
// rolls back.
func lockEverything(db *locking.DB, named []data.Key) error {
	tx, err := db.Begin(engine.Serializable)
	if err != nil {
		return err
	}
	rows, err := tx.Select(predicate.True{})
	if err != nil {
		return err
	}
	for _, r := range rows {
		named = append(named, r.Key)
	}
	for _, k := range named {
		if err := engine.PutVal(tx, k, 0); err != nil {
			return err
		}
	}
	return tx.Abort()
}
