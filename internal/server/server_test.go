package server_test

import (
	"bufio"
	"fmt"
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

// TestServerBackpressureShed pins the statement gate exactly: with one
// inflight slot and a one-statement queue, a third concurrent data
// statement is shed with -BUSY while control statements (COMMIT) bypass
// the gate — the commit that releases the blocking lock can never be
// shed behind the statements waiting on it.
func TestServerBackpressureShed(t *testing.T) {
	db := locking.NewDB()
	srv := server.New(server.Config{
		DB: db, DefaultLevel: engine.Serializable, Family: "locking",
		MaxInflight: 1, MaxQueued: 1,
	})
	defer srv.Close()

	const hello = "+HELLO isolevel family=locking level=SER"
	c1 := pipeClient(t, srv, hello)
	c2 := pipeClient(t, srv, hello)
	c3 := pipeClient(t, srv, hello)
	c4 := pipeClient(t, srv, hello)

	c1.do("BEGIN", "+OK T1 SER")
	c1.do("SET x 1", "+OK") // slot taken and released; x stays locked

	// c2's write blocks on c1's lock while holding the single slot.
	c2.do("BEGIN", "+OK T2 SER")
	c2.send("SET x 2")
	for i := 0; db.LockStats().Waits == 0; i++ {
		if i > 1_000_000 {
			t.Fatal("c2's SET x never blocked")
		}
		runtime.Gosched()
	}

	// c3's statement occupies the one queue seat.
	c3.send("SET y 1")
	for i := 0; srv.StatementsQueued() == 0; i++ {
		if i > 1_000_000 {
			t.Fatal("c3's SET y never queued")
		}
		runtime.Gosched()
	}

	// c4's statement finds slot and queue full: shed, exactly once.
	c4.send("SET z 1")
	if got := c4.readLine(); got != "-BUSY statement shed (queue full)" {
		t.Fatalf("c4 reply = %q, want -BUSY statement shed (queue full)", got)
	}

	// COMMIT bypasses the gate, releasing the lock and unwinding the
	// queue: c2 completes, then c3.
	c1.do("COMMIT", "+OK")
	if got := c2.readLine(); got != "+OK" {
		t.Fatalf("c2 SET x after unblock = %q, want +OK", got)
	}
	if got := c3.readLine(); got != "+OK" {
		t.Fatalf("c3 SET y after unblock = %q, want +OK", got)
	}
	c2.do("COMMIT", "+OK")

	if got := srv.StatementsShed(); got != 1 {
		t.Fatalf("StatementsShed = %d, want 1", got)
	}
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
		Clients: 6, Txns: txns, Keys: 32, OpsPerTxn: 3,
		ReadFrac: 0.5, ScanFrac: 0.2,
		Levels: []engine.Level{engine.SnapshotIsolation, engine.ReadConsistency},
		Seed:   1,
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
// fired. Runs under -race with the full stack live.
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
	defer func() {
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const txns = 200
	res, err := loadgen.Run(loadgen.Config{
		Addr:    ln.Addr().String(),
		Clients: 4, Txns: txns, Keys: 32, HotKeys: 8, HotBias: 0.6, OpsPerTxn: 4,
		ReadFrac: 0.2, ScanFrac: 0.3, DelFrac: 0.25,
		Levels: []engine.Level{engine.Serializable, engine.RepeatableRead, engine.ReadCommitted},
		Seed:   1,
	})
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

// TestServerDisconnectReleasesSnapshot: a client that vanishes with a
// SNAPSHOT ISOLATION transaction open must not hold version GC back for
// the life of the server — closing the session aborts the transaction,
// which releases its snapshot, and the horizon catches up with the commits
// it was holding.
func TestServerDisconnectReleasesSnapshot(t *testing.T) {
	db := mvcc.NewDB()
	db.Load(data.Tuple{Key: "x", Row: data.Scalar(1)})
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.SnapshotIsolation, Family: "mv"})
	defer srv.Close()

	sc, cc := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeConn(sc)
	}()
	holder := &wireClient{t: t, conn: cc, br: bufio.NewReader(cc)}
	defer cc.Close()
	if got := holder.readLine(); got != "+HELLO isolevel family=mv level=SI" {
		t.Fatalf("greeting = %q", got)
	}
	holder.do("BEGIN ISOLATION LEVEL SNAPSHOT_ISOLATION", "+OK T1 SI")
	holder.do("GET x", ":1")

	wr := pipeClient(t, srv, "+HELLO isolevel family=mv level=SI")
	const writes = 5
	for i := 2; i < 2+writes; i++ {
		wr.do(fmt.Sprintf("SET x %d", i), "+OK")
	}
	if st := db.MVStats(); st.SnapshotsActive != 1 || st.HorizonLag != writes {
		t.Fatalf("with the transaction open: %+v, want 1 snapshot holding the horizon %d commits back", st, writes)
	}
	if n := len(db.Chain("x")); n != 1+writes {
		t.Fatalf("x holds %d versions under the open snapshot, want all %d", n, 1+writes)
	}
	holder.do("GET x", ":1")

	cc.Close() // no COMMIT, no ABORT, no QUIT
	<-served
	if st := db.MVStats(); st.SnapshotsActive != 0 || st.HorizonLag != 0 {
		t.Fatalf("after the disconnect: %+v, want nothing registered and the horizon at the watermark", st)
	}
	wr.do("SET x 99", "+OK")
	if n := len(db.Chain("x")); n != 2 {
		t.Fatalf("x holds %d versions after the next commit, want 2", n)
	}
}
