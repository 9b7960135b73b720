package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/loadgen"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/server"
)

// wireClient is a test-side peer of one server connection.
type wireClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// pipeClient serves one net.Pipe connection on srv and returns the
// client side with the greeting consumed and checked.
func pipeClient(t *testing.T, srv *server.Server, wantGreeting string) *wireClient {
	t.Helper()
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	c := &wireClient{t: t, conn: cc, br: bufio.NewReader(cc)}
	t.Cleanup(func() { cc.Close() })
	if got := c.readLine(); got != wantGreeting {
		t.Fatalf("greeting = %q, want %q", got, wantGreeting)
	}
	return c
}

func (c *wireClient) send(line string) {
	c.t.Helper()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(c.conn, "%s\r\n", line); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
}

func (c *wireClient) readLine() string {
	c.t.Helper()
	c.conn.SetDeadline(time.Now().Add(10 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// do sends one statement and asserts its single-line reply.
func (c *wireClient) do(line, want string) {
	c.t.Helper()
	c.send(line)
	if got := c.readLine(); got != want {
		c.t.Fatalf("%q -> %q, want %q", line, got, want)
	}
}

func TestServerPipeLifecycle(t *testing.T) {
	db := mvcc.NewDB()
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.SnapshotIsolation, Family: "mv"})
	defer srv.Close()

	c := pipeClient(t, srv, "+HELLO isolevel family=mv level=SI")
	c.do("PING", "+PONG")
	c.do("BEGIN", "+OK T1 SI")
	c.do("SET x 41", "+OK")
	c.do("GET x", ":41")
	c.do("COMMIT", "+OK")
	c.do("GET x", ":41") // autocommit read
	c.send("SCAN a z")
	if got := c.readLine(); got != "*1" {
		t.Fatalf("SCAN header = %q, want *1", got)
	}
	if got := c.readLine(); got != "+x 41" {
		t.Fatalf("SCAN row = %q, want +x 41", got)
	}
	c.send("QUIT")
	if got := c.readLine(); got != "+BYE" {
		t.Fatalf("QUIT = %q, want +BYE", got)
	}
	// Commits: explicit COMMIT + autocommit GET + autocommit SCAN.
	if got := srv.Counters()["server_commits"]; got != 3 {
		t.Fatalf("server_commits = %d, want 3", got)
	}
}

// TestServerMixedLevelSessions interleaves a SNAPSHOT ISOLATION session
// and a READ CONSISTENCY session on one mvcc engine: the SI reader keeps
// its transaction-start snapshot across a concurrent committed write,
// while the RC reader's next statement sees it.
func TestServerMixedLevelSessions(t *testing.T) {
	db := mvcc.NewDB()
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(1)})
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.SnapshotIsolation, Family: "mv"})
	defer srv.Close()

	si := pipeClient(t, srv, "+HELLO isolevel family=mv level=SI")
	rc := pipeClient(t, srv, "+HELLO isolevel family=mv level=SI")
	wr := pipeClient(t, srv, "+HELLO isolevel family=mv level=SI")

	si.do("BEGIN ISOLATION LEVEL SNAPSHOT ISOLATION", "+OK T1 SI")
	si.do("GET x", ":1")
	rc.do("BEGIN ISOLATION LEVEL READ CONSISTENCY", "+OK T2 ORC")
	rc.do("GET x", ":1")

	wr.do("SET x 2", "+OK") // autocommit write on a third session

	si.do("GET x", ":1") // SI: still the start-of-txn snapshot
	rc.do("GET x", ":2") // RC: statement-level read timestamp sees it
	si.do("COMMIT", "+OK")
	rc.do("COMMIT", "+OK")
}

// TestServerDeadlockRetry forces a lock-order deadlock between two
// sessions on the keyrange locking family and asserts the victim's
// statement surfaces as a typed retryable wire error, after which the
// session can immediately rerun from BEGIN.
func TestServerDeadlockRetry(t *testing.T) {
	db := locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.Serializable, Family: "keyrange"})
	defer srv.Close()

	c1 := pipeClient(t, srv, "+HELLO isolevel family=keyrange level=SER")
	c2 := pipeClient(t, srv, "+HELLO isolevel family=keyrange level=SER")

	c1.do("BEGIN", "+OK T1 SER")
	c2.do("BEGIN", "+OK T2 SER")
	c1.do("SET x 1", "+OK")
	c2.do("SET y 1", "+OK")

	// c1 -> SET y blocks on c2's lock; wait until that waiter is parked
	// (Waits increments at enqueue), then c2 -> SET x closes the cycle
	// and is chosen as the deterministic victim.
	c1.send("SET y 2")
	for i := 0; db.LockStats().Waits == 0; i++ {
		if i > 1_000_000 {
			t.Fatal("c1's SET y never blocked")
		}
		runtime.Gosched()
	}
	c2.send("SET x 2")
	reply := c2.readLine()
	if !strings.HasPrefix(reply, "-RETRY DEADLOCK ") {
		t.Fatalf("victim reply = %q, want -RETRY DEADLOCK ...", reply)
	}
	// The survivor's blocked statement completes and it commits.
	if got := c1.readLine(); got != "+OK" {
		t.Fatalf("survivor SET y = %q, want +OK", got)
	}
	c1.do("COMMIT", "+OK")
	// The victim's transaction is already rolled back server-side: the
	// retry contract is rerun-from-BEGIN, no ABORT needed.
	c2.do("BEGIN", "+OK T3 SER")
	c2.do("SET x 2", "+OK")
	c2.do("COMMIT", "+OK")

	if got := srv.Stats().Retryable.Load(); got != 1 {
		t.Fatalf("Retryable = %d, want 1", got)
	}
	if got := srv.Counters()["server_retryable_errors"]; got != 1 {
		t.Fatalf("server_retryable_errors = %d, want 1", got)
	}
}

// TestServerLockHolderNeverQueuesBehindItsWaiters: with more sessions
// blocked on T1's lock than the server has ever capped executing
// statements at, T1's own next statements still run — every wait in the
// server is a lock wait the deadlock detector sees — so T1 commits, each
// waiter reads its write, and Close returns.
func TestServerLockHolderNeverQueuesBehindItsWaiters(t *testing.T) {
	db := locking.NewDB()
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.Serializable, Family: "locking"})
	defer closeWithin(t, srv)

	const hello = "+HELLO isolevel family=locking level=SER"
	holder := pipeClient(t, srv, hello)
	holder.do("BEGIN", "+OK T1 SER")
	holder.do("SET x 1", "+OK")

	const readers = 257
	rs := make([]*wireClient, readers)
	for i := range rs {
		rs[i] = pipeClient(t, srv, hello)
		rs[i].send("GET x")
	}
	waitFor(t, func() bool { return db.LockStats().Waits >= readers }, "all 257 readers' GET x to block on T1's lock")
	if got := db.LockStats().Waits; got != readers {
		t.Fatalf("lock waits = %d, want %d", got, readers)
	}

	holder.do("SET y 1", "+OK")
	holder.do("COMMIT", "+OK")
	for i, r := range rs {
		if got := r.readLine(); got != ":1" {
			t.Fatalf("reader %d: GET x = %q, want :1", i, got)
		}
	}
}

// TestServerBoundsStatementLine: a statement line longer than the
// server's read buffer is refused with -ERR instead of buffered whole,
// the connection is closed, and the session's open transaction is rolled
// back.
func TestServerBoundsStatementLine(t *testing.T) {
	db := locking.NewDB()
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(0)})
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.Serializable, Family: "locking"})
	defer closeWithin(t, srv)

	const hello = "+HELLO isolevel family=locking level=SER"
	c := pipeClient(t, srv, hello)
	c.do("BEGIN", "+OK T1 SER")
	c.do("SET x 1", "+OK")

	// net.Pipe is synchronous: the writer blocks as soon as the server
	// stops reading, so the 1 MiB newline-free line has its own goroutine.
	wrote := make(chan error, 1)
	go func() {
		_, err := c.conn.Write(append([]byte("SET x "), bytes.Repeat([]byte("9"), 1<<20)...))
		wrote <- err
	}()
	if got := c.readLine(); got != "-ERR statement too long" {
		t.Fatalf("reply to a 1 MiB line = %q, want -ERR statement too long", got)
	}
	if line, err := c.br.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the refusal: read %q, %v; want io.EOF (connection closed)", line, err)
	}
	if err := <-wrote; err == nil {
		t.Fatal("the server read the whole 1 MiB line")
	}

	r := pipeClient(t, srv, hello)
	r.do("GET x", ":0") // T1's lock released and its write rolled back
}

// TestServerLoadgenAdmissionExact drives the in-process load generator
// at a server whose admission control is smaller than the fleet and
// asserts the exact shed split on both sides of the wire. Runs the full
// stack (listener, sessions, mixed-level traffic) under -race.
func TestServerLoadgenAdmissionExact(t *testing.T) {
	db := mvcc.NewDB()
	tuples := make([]data.Tuple, 32)
	for i := range tuples {
		tuples[i] = data.Tuple{Key: data.Key(fmt.Sprintf("acct:%06d", i)), Row: data.Scalar(100)}
	}
	db.Load(tuples...)

	srv := server.New(server.Config{
		DB: db, DefaultLevel: engine.SnapshotIsolation, Family: "mv",
		MaxSessions: 4,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const txns = 120
	res, err := loadgen.Run(loadgen.Config{
		Addr:    ln.Addr().String(),
		Clients: 6, Txns: txns, Keys: 32, HotBias: 0.5, OpsPerTxn: 3,
		ReadFrac: 0.5, ScanFrac: 0.2,
		Levels:  []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency},
		Retries: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())

	if res.Admitted != 4 || res.Shed != 2 {
		t.Fatalf("admitted=%d shed=%d, want 4/2", res.Admitted, res.Shed)
	}
	if got := srv.SessionsShed(); got != 2 {
		t.Fatalf("server SessionsShed = %d, want 2", got)
	}
	if res.ProtoErrs != 0 {
		t.Fatalf("proto errors = %d, want 0", res.ProtoErrs)
	}
	if res.Commits+res.GaveUp != txns {
		t.Fatalf("commits=%d + gave-up=%d != txns=%d", res.Commits, res.GaveUp, txns)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Txn.Count != res.Commits {
		t.Fatalf("txn latency count = %d, want %d", res.Txn.Count, res.Commits)
	}
	c := srv.Counters()
	if c["server_commits"] < res.Commits {
		t.Fatalf("server_commits = %d < loadgen commits %d", c["server_commits"], res.Commits)
	}
	if c["server_sessions_accepted"] != 4 || c["server_sessions_shed"] != 2 {
		t.Fatalf("counter sessions accepted/shed = %d/%d, want 4/2",
			c["server_sessions_accepted"], c["server_sessions_shed"])
	}
}

// TestServerLoadgenDMLKeyrange drives a SCAN/SET/DEL-heavy mixed-level
// fleet at a keyrange-protected locking server — the gap-lock protocol
// on its network path rather than the exerciser's lockstep one. DELs
// empty out intervals and later SETs re-insert into them, so scans
// continuously certify against rows appearing and vanishing mid-flight,
// and inserts take the gap-acquisition path for real. Asserts a clean
// wire (zero protocol errors), forward progress under deadlock retries,
// DML actually flowing, and GapGrants > 0 — the insert/gap machinery
// fired. Runs under -race with the full stack live. A lock wait that is
// never granted nor refused stalls every session behind it, so a
// watchdog fails the run after loadgenStallDeadline, naming the stall.
func TestServerLoadgenDMLKeyrange(t *testing.T) {
	db := locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
	tuples := make([]data.Tuple, 32)
	for i := range tuples {
		tuples[i] = data.Tuple{Key: data.Key(fmt.Sprintf("acct:%06d", i)), Row: data.Scalar(100)}
	}
	db.Load(tuples...)

	srv := server.New(server.Config{
		DB: db, DefaultLevel: engine.Serializable, Family: "keyrange",
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	stalled := false
	defer func() {
		if stalled {
			return
		}
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const txns = 200
	type outcome struct {
		res loadgen.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := loadgen.Run(loadgen.Config{
			Addr:    ln.Addr().String(),
			Clients: 4, Txns: txns, Keys: 32, HotKeys: 8, HotBias: 0.6, OpsPerTxn: 4,
			ReadFrac: 0.2, ScanFrac: 0.3, DelFrac: 0.25,
			Levels:  []engine.Level{engine.Serializable, engine.RepeatableRead, engine.ReadCommitted},
			Retries: 10, Seed: 1,
		})
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(loadgenStallDeadline):
		// Close waits for every session, and a session parked in a lock
		// wait that is never answered never returns: close in the
		// background, dropping the clients, and fail now.
		queued, st := parkedLockWaits(), db.LockStats()
		stalled = true
		go srv.Close()
		t.Fatalf("loadgen stalled: no result after %v with %d lock requests queued process-wide "+
			"(grants=%d waits=%d deadlocks=%d range grants/waits=%d/%d gap grants/waits=%d/%d)",
			loadgenStallDeadline, queued, st.Grants, st.Waits, st.Deadlocks,
			st.RangeGrants, st.RangeWaits, st.GapGrants, st.GapWaits)
	}
	res, err := out.res, out.err
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.String())

	if res.ProtoErrs != 0 {
		t.Fatalf("proto errors = %d, want 0", res.ProtoErrs)
	}
	if res.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Commits+res.GaveUp != txns {
		t.Fatalf("commits=%d + gave-up=%d != txns=%d", res.Commits, res.GaveUp, txns)
	}
	if res.Dels == 0 || res.Scans == 0 || res.Writes == 0 {
		t.Fatalf("mix starved: reads=%d writes=%d scans=%d dels=%d",
			res.Reads, res.Writes, res.Scans, res.Dels)
	}
	if st := db.LockStats(); st.GapGrants == 0 {
		t.Fatalf("GapGrants = 0: the insert/gap path never fired (stats %+v)", st)
	}
}

// loadgenStallDeadline bounds one loadgen run against a live server: a
// clean run takes tens of milliseconds, hundreds under -race.
const loadgenStallDeadline = 30 * time.Second

// parkedLockWaits counts the goroutines parked in a lock-manager wait in
// this process — the lock managers' queue length, read from outside the
// engine (it includes any wait leaked by an earlier stalled run).
func parkedLockWaits() int {
	buf := make([]byte, 1<<22)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "lock.(*Manager).await(")
}

// TestServerDisconnectReleasesSnapshot: a client that leaves a
// transaction open and then fails — disconnects, dies mid-line, or stops
// reading its replies — must not keep its locks, its SNAPSHOT ISOLATION
// snapshot (which holds version GC back) or its admission slot. Closing
// the session aborts the transaction; the half-written statement never
// runs.
func TestServerDisconnectReleasesSnapshot(t *testing.T) {
	families := []struct {
		name  string
		db    func() engine.DB
		level engine.Level
	}{
		{"locking", func() engine.DB { return locking.NewDB() }, engine.Serializable},
		{"mv", func() engine.DB { return mvcc.NewDB() }, engine.SnapshotIsolation},
	}
	faults := []struct {
		name  string
		fault func(t *testing.T, c *wireClient, srv *server.Server)
	}{
		{"disconnect", func(t *testing.T, c *wireClient, srv *server.Server) {}},
		{"half-written line", func(t *testing.T, c *wireClient, srv *server.Server) {
			if _, err := c.conn.Write([]byte("COMMIT")); err != nil {
				t.Fatal(err)
			}
		}},
		{"unread replies", func(t *testing.T, c *wireClient, srv *server.Server) {
			n := srv.Stats().Statements.Load()
			c.send("GET x")
			waitFor(t, func() bool { return srv.Stats().Statements.Load() > n }, "the unread GET x to run")
		}},
	}
	for _, fam := range families {
		for _, f := range faults {
			t.Run(fam.name+"/"+f.name, func(t *testing.T) {
				db := fam.db()
				db.Load(data.Tuple{Key: "x", Row: data.Scalar(1)})
				srv := server.New(server.Config{DB: db, DefaultLevel: fam.level, Family: fam.name, MaxSessions: 1})
				defer closeWithin(t, srv)
				mvdb, _ := db.(*mvcc.DB)

				sc, cc := net.Pipe()
				served := make(chan struct{})
				go func() {
					defer close(served)
					srv.ServeConn(sc)
				}()
				c := &wireClient{t: t, conn: cc, br: bufio.NewReader(cc)}
				defer cc.Close()
				code := fam.level.Code()
				hello := "+HELLO isolevel family=" + fam.name + " level=" + code
				if got := c.readLine(); got != hello {
					t.Fatalf("greeting = %q, want %q", got, hello)
				}
				c.do("BEGIN", "+OK T1 "+code)
				c.do("GET x", ":1")
				c.do("SET x 2", "+OK")

				// Commits beside the open transaction: on mv its snapshot
				// holds the horizon back by each of them.
				const writes = 3
				for i := 0; i < writes; i++ {
					tx, err := db.Begin(fam.level)
					if err == nil {
						err = tx.Put("w", data.Scalar(int64(i)))
					}
					if err == nil {
						err = tx.Commit()
					}
					if err != nil {
						t.Fatalf("write %d beside the open transaction: %v", i, err)
					}
				}
				if mvdb != nil {
					if st := mvdb.MVStats(); st.SnapshotsActive != 1 || st.HorizonLag != writes {
						t.Fatalf("with the transaction open: %+v, want 1 snapshot holding the horizon %d commits back", st, writes)
					}
					if n := len(mvdb.Chain("w")); n != writes {
						t.Fatalf("w holds %d versions under the open snapshot, want all %d", n, writes)
					}
				}

				f.fault(t, c, srv)
				cc.Close()
				select {
				case <-served:
				case <-time.After(10 * time.Second):
					t.Fatal("the session never tore down")
				}

				if mvdb != nil {
					if st := mvdb.MVStats(); st.SnapshotsActive != 0 || st.HorizonLag != 0 {
						t.Fatalf("after the fault: %+v, want nothing registered and the horizon at the watermark", st)
					}
				}
				// The admission slot came back (MaxSessions is 1), T1's
				// write was rolled back, and its lock released.
				next := pipeClient(t, srv, hello)
				next.do("GET x", ":1")
				next.do("SET x 9", "+OK")
				next.do("GET x", ":9")
				if mvdb != nil {
					next.do("SET w 99", "+OK")
					if n := len(mvdb.Chain("w")); n != 2 {
						t.Fatalf("w holds %d versions after the next commit, want 2", n)
					}
				}
			})
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// closeWithin closes srv under a watchdog: a Close that never returns
// (a handler wedged server-side) fails the test after 5 s instead of
// hanging the package; the wedged goroutines are left behind.
func closeWithin(t *testing.T, srv *server.Server) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("srv.Close() did not return within 5s")
	}
}
