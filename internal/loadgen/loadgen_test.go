package loadgen_test

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/loadgen"
	"isolevel/internal/mvcc"
	"isolevel/internal/server"
)

// pipeServer serves an mv engine preloaded with acct:000000..acct:000015
// at SNAPSHOT ISOLATION.
func pipeServer(t *testing.T) *server.Server {
	t.Helper()
	db := mvcc.NewDB()
	tuples := make([]data.Tuple, 16)
	for i := range tuples {
		tuples[i] = data.Tuple{Key: data.Key(fmt.Sprintf("acct:%06d", i)), Row: data.Scalar(100)}
	}
	db.Load(tuples...)
	srv := server.New(server.Config{DB: db, DefaultLevel: engine.SnapshotIsolation, Family: "mv"})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// pipeDialer connects each client to srv over net.Pipe (no listener).
func pipeDialer(srv *server.Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
}

// TestLoadgenPipeRun drives a closed-loop run over net.Pipe connections
// (no listener) and checks the accounting invariants and the report
// tokens the serve-smoke CI target greps for.
func TestLoadgenPipeRun(t *testing.T) {
	srv := pipeServer(t)

	const txns = 40
	res, err := loadgen.Run(loadgen.Config{
		Dial:    pipeDialer(srv),
		Clients: 3, Txns: txns, Keys: 16, HotBias: 0.5, OpsPerTxn: 4,
		ReadFrac: 0.4, ScanFrac: 0.2,
		Levels:  []engine.Level{engine.SnapshotIsolation},
		Retries: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 3 || res.Shed != 0 {
		t.Fatalf("admitted=%d shed=%d, want 3/0", res.Admitted, res.Shed)
	}
	if res.ProtoErrs != 0 {
		t.Fatalf("proto errors = %d, want 0", res.ProtoErrs)
	}
	if res.Commits+res.GaveUp != txns {
		t.Fatalf("commits=%d + gave-up=%d != %d", res.Commits, res.GaveUp, txns)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	// Committed transactions ran OpsPerTxn data statements each.
	if ops := res.Reads + res.Writes + res.Scans; ops < res.Commits*4 {
		t.Fatalf("reads+writes+scans = %d, want >= %d", ops, res.Commits*4)
	}
	if res.Stmt.Count == 0 || res.Txn.Count != res.Commits {
		t.Fatalf("histograms: stmt count=%d txn count=%d commits=%d", res.Stmt.Count, res.Txn.Count, res.Commits)
	}
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %f, want > 0", res.Throughput())
	}
	report := res.String()
	for _, tok := range []string{"proto-errors=0", "commits=", "throughput=", "txn latency (ns):", "admitted=3 shed=0"} {
		if !strings.Contains(report, tok) {
			t.Errorf("report missing %q:\n%s", tok, report)
		}
	}
}

// An explicit 0 is a setting, not a request for a default: ReadFrac 0
// issues no GET at all. A mix that does not fit in one op is refused
// before any client connects.
func TestLoadgenConfigMeansWhatItSays(t *testing.T) {
	srv := pipeServer(t)
	res, err := loadgen.Run(loadgen.Config{
		Dial:    pipeDialer(srv),
		Clients: 2, Txns: 20, Keys: 16, HotBias: 0.5, OpsPerTxn: 4,
		ReadFrac: 0, Retries: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 0 || res.Writes == 0 {
		t.Fatalf("ReadFrac 0: reads=%d writes=%d, want no reads and some writes", res.Reads, res.Writes)
	}
	for _, cfg := range []loadgen.Config{
		{ReadFrac: 0.6, ScanFrac: 0.3, DelFrac: 0.3},
		{ReadFrac: -0.1},
		{HotBias: 1.5},
		{Retries: -1},
	} {
		cfg.Dial = func() (net.Conn, error) {
			t.Fatal("dialed despite an invalid config")
			return nil, nil
		}
		if _, err := loadgen.Run(cfg); err == nil {
			t.Errorf("Run(%+v) = nil error, want the config refused", cfg)
		}
	}
}
