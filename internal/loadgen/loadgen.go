// Package loadgen is the traffic tier's load generator: a closed- or
// open-loop client fleet driving the server package's wire protocol and
// reporting throughput, abort/retry rates, and latency percentiles from
// internal/obs histograms.
//
// All clients connect up front (so admission-control shedding is
// observed exactly once per refused client), then run transactions:
//
//   - closed loop (Rate == 0): each admitted client runs its share of
//     Txns back to back — offered load tracks service capacity;
//   - open loop (Rate > 0): arrivals are generated at the target rate
//     regardless of completions, and arrivals that find every client
//     busy are counted as dropped — offered load is independent of
//     capacity, the way real traffic is.
//
// Each transaction samples an isolation level from Levels (mixed-level
// traffic on one engine), a hot-or-cold key set per op, and retries on
// the server's "-RETRY <KIND>" replies up to Retries times. "-BUSY" is
// a greeting-time admission reply only; any other "-" reply ("-ERR",
// a "-BUSY" after the greeting) counts as a protocol error: a healthy
// run reports zero.
//
// The generator is seeded (Seed) so a given config replays the same
// statement stream per client; timing, and therefore interleaving,
// remains the scheduler's. This package deliberately lives outside the
// //isolint:deterministic set: it measures wall-clock behavior of a
// live server.
package loadgen

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isolevel/internal/engine"
	"isolevel/internal/obs"
)

// Config parameterizes a load run. Addr or Dial is required. Counts and
// sizes of 0 take defaults; the fractions and Retries mean what they say,
// 0 included (`isolevel load` carries their defaults in its flags).
type Config struct {
	Addr      string                   // server address (tcp)
	Dial      func() (net.Conn, error) // optional custom dialer (tests)
	Clients   int                      // client connections (default 4)
	Txns      int                      // transactions across admitted clients (default 1000)
	Rate      float64                  // open-loop arrivals/sec; 0 = closed loop
	Keys      int                      // key-space size (default 64)
	HotKeys   int                      // hot-set size (default max(1, Keys/16))
	HotBias   float64                  // probability an op hits the hot set
	OpsPerTxn int                      // data statements per transaction (default 4)
	ReadFrac  float64                  // fraction of ops that GET
	ScanFrac  float64                  // fraction of ops that SCAN
	DelFrac   float64                  // fraction of ops that DEL; the rest SET
	Levels    []engine.Level           // per-txn level mix; empty = server default
	Retries   int                      // max retries per transaction
	Seed      int64                    // rng seed (default 1)
}

// check rejects fractions outside [0,1], an op mix over 1 and a negative
// retry budget: each would silently run some other load than the one asked
// for.
func (c *Config) check() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"HotBias", c.HotBias}, {"ReadFrac", c.ReadFrac}, {"ScanFrac", c.ScanFrac}, {"DelFrac", c.DelFrac}} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("loadgen: %s = %v, want a fraction in [0,1]", f.name, f.v)
		}
	}
	// The slack forgives float rounding: 0.56+0.34+0.1 sums to 1.0000000000000002.
	if sum := c.ReadFrac + c.ScanFrac + c.DelFrac; sum > 1+1e-9 {
		return fmt.Errorf("loadgen: ReadFrac+ScanFrac+DelFrac = %v, want at most 1", sum)
	}
	if c.Retries < 0 {
		return fmt.Errorf("loadgen: Retries = %d, want >= 0", c.Retries)
	}
	return nil
}

func (c *Config) fill() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Txns <= 0 {
		c.Txns = 1000
	}
	if c.Keys <= 0 {
		c.Keys = 64
	}
	if c.HotKeys <= 0 {
		c.HotKeys = max(1, c.Keys/16)
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dial == nil {
		addr := c.Addr
		c.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
}

// Result aggregates a run. Txn and Stmt are latency snapshots in
// nanoseconds.
type Result struct {
	Clients  int   // configured clients
	Admitted int64 // clients past admission control
	Shed     int64 // clients refused with -BUSY at the greeting

	Commits   int64 // committed transactions
	Retries   int64 // -RETRY replies honored with a rerun
	GaveUp    int64 // transactions abandoned after Retries retries
	ProtoErrs int64 // -ERR replies, malformed replies, dead connections
	Dropped   int64 // open-loop arrivals dropped (all clients busy)

	Reads, Writes, Scans, Dels int64

	Elapsed time.Duration
	Txn     obs.HistSnapshot
	Stmt    obs.HistSnapshot
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// String renders the run report; the serve-smoke CI target greps these
// exact field names.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: clients=%d admitted=%d shed=%d\n", r.Clients, r.Admitted, r.Shed)
	fmt.Fprintf(&b, "  commits=%d retries=%d gave-up=%d dropped=%d proto-errors=%d reads=%d writes=%d scans=%d dels=%d\n",
		r.Commits, r.Retries, r.GaveUp, r.Dropped, r.ProtoErrs, r.Reads, r.Writes, r.Scans, r.Dels)
	fmt.Fprintf(&b, "  throughput=%.0f tx/s over %v\n", r.Throughput(), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  txn latency (ns):  %s\n", r.Txn.Summary())
	fmt.Fprintf(&b, "  stmt latency (ns): %s\n", r.Stmt.Summary())
	return b.String()
}

// Run executes one load run and blocks until every client finishes.
func Run(cfg Config) (Result, error) {
	if err := cfg.check(); err != nil {
		return Result{}, err
	}
	cfg.fill()
	res := Result{Clients: cfg.Clients}
	var (
		admitted, shed, commits, retries, gaveUp       atomic.Int64
		protoErrs, dropped, reads, writes, scans, dels atomic.Int64
		txnHist, stmtHist                              obs.Histogram
	)

	// Connect the whole fleet first: admission decisions land before any
	// client disconnects, so shed counts are exact.
	clients := make([]*client, 0, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		conn, err := cfg.Dial()
		if err != nil {
			return res, fmt.Errorf("loadgen: dial client %d: %w", i, err)
		}
		c := &client{
			conn: conn,
			br:   bufio.NewReader(conn),
			bw:   bufio.NewWriter(conn),
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i)*7919)),
			cfg:  &cfg,
			stmt: &stmtHist,
		}
		line, err := c.readLine()
		switch {
		case err != nil:
			protoErrs.Add(1)
			conn.Close()
		case strings.HasPrefix(line, "-BUSY"):
			shed.Add(1)
			conn.Close()
		case strings.HasPrefix(line, "+HELLO"):
			admitted.Add(1)
			clients = append(clients, c)
		default:
			protoErrs.Add(1)
			conn.Close()
		}
	}

	// Open loop: a dispatcher paces arrivals into a bounded queue;
	// arrivals that find it full are dropped.
	var work chan struct{}
	if cfg.Rate > 0 && len(clients) > 0 {
		work = make(chan struct{}, len(clients))
		go func() {
			defer close(work)
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			for i := 0; i < cfg.Txns; i++ {
				select {
				case work <- struct{}{}:
				default:
					dropped.Add(1)
				}
				time.Sleep(interval)
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		// Closed loop: split Txns across admitted clients.
		share := cfg.Txns / len(clients)
		if i < cfg.Txns%len(clients) {
			share++
		}
		wg.Add(1)
		go func(c *client, share int) {
			defer wg.Done()
			defer c.close()
			for done := 0; ; done++ {
				if work != nil {
					if _, ok := <-work; !ok {
						return
					}
				} else if done >= share {
					return
				}
				t0 := time.Now()
				switch c.runTxn(&retries, &reads, &writes, &scans, &dels) {
				case txnCommitted:
					commits.Add(1)
					txnHist.Record(time.Since(t0).Nanoseconds())
				case txnGaveUp:
					gaveUp.Add(1)
				case txnDead:
					protoErrs.Add(1)
					return
				}
			}
		}(c, share)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	res.Admitted, res.Shed = admitted.Load(), shed.Load()
	res.Commits, res.Retries, res.GaveUp = commits.Load(), retries.Load(), gaveUp.Load()
	res.ProtoErrs, res.Dropped = protoErrs.Load(), dropped.Load()
	res.Reads, res.Writes, res.Scans, res.Dels = reads.Load(), writes.Load(), scans.Load(), dels.Load()
	res.Txn, res.Stmt = txnHist.Snapshot(), stmtHist.Snapshot()
	return res, nil
}

type txnOutcome int

const (
	txnCommitted txnOutcome = iota
	txnGaveUp
	txnDead // connection unusable; the client stops
)

type client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	rng  *rand.Rand
	cfg  *Config
	stmt *obs.Histogram
}

func (c *client) close() { c.conn.Close() }

type op struct {
	verb string // GET, SET, DEL, SCAN
	key  string
	val  int64
	hi   string // SCAN upper bound
}

// key samples a hot or cold key. Keys are zero-padded so their order
// matches the scan order.
func (c *client) key() string {
	var k int
	if c.rng.Float64() < c.cfg.HotBias {
		k = c.rng.Intn(c.cfg.HotKeys)
	} else {
		k = c.rng.Intn(c.cfg.Keys)
	}
	return fmt.Sprintf("acct:%06d", k)
}

// genTxn draws one transaction: a level from the mix and OpsPerTxn data
// statements. The ops are fixed for the transaction's lifetime so a
// retry reruns the same logical work.
func (c *client) genTxn() (level string, ops []op) {
	if len(c.cfg.Levels) > 0 {
		level = c.cfg.Levels[c.rng.Intn(len(c.cfg.Levels))].String()
	}
	ops = make([]op, c.cfg.OpsPerTxn)
	for i := range ops {
		r := c.rng.Float64()
		switch {
		case r < c.cfg.ReadFrac:
			ops[i] = op{verb: "GET", key: c.key()}
		case r < c.cfg.ReadFrac+c.cfg.ScanFrac:
			lo := c.rng.Intn(c.cfg.Keys)
			span := 1 + c.rng.Intn(8)
			ops[i] = op{verb: "SCAN", key: fmt.Sprintf("acct:%06d", lo), hi: fmt.Sprintf("acct:%06d", lo+span)}
		case r < c.cfg.ReadFrac+c.cfg.ScanFrac+c.cfg.DelFrac:
			ops[i] = op{verb: "DEL", key: c.key()}
		default:
			ops[i] = op{verb: "SET", key: c.key(), val: c.rng.Int63n(1000)}
		}
	}
	return level, ops
}

// runTxn runs one transaction including its retry loop.
func (c *client) runTxn(retries, reads, writes, scans, dels *atomic.Int64) txnOutcome {
	level, ops := c.genTxn()
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		switch res := c.attempt(level, ops, reads, writes, scans, dels); res {
		case attemptOK:
			return txnCommitted
		case attemptRetry:
			retries.Add(1)
		case attemptDead:
			return txnDead
		}
	}
	return txnGaveUp
}

type attemptResult int

const (
	attemptOK    attemptResult = iota
	attemptRetry               // -RETRY: server rolled the txn back; rerun
	attemptDead                // protocol error or dead connection
)

// attempt runs BEGIN, the ops, COMMIT once. On -RETRY the server has
// already aborted.
func (c *client) attempt(level string, ops []op, reads, writes, scans, dels *atomic.Int64) attemptResult {
	begin := "BEGIN"
	if level != "" {
		begin = "BEGIN ISOLATION LEVEL " + level
	}
	status, _, err := c.roundTrip(begin)
	if err != nil || status != '+' {
		return attemptDead
	}
	for _, o := range ops {
		var cmd string
		switch o.verb {
		case "GET":
			cmd = "GET " + o.key
		case "SET":
			cmd = "SET " + o.key + " " + strconv.FormatInt(o.val, 10)
		case "DEL":
			cmd = "DEL " + o.key
		case "SCAN":
			cmd = "SCAN " + o.key + " " + o.hi
		}
		status, line, err := c.roundTrip(cmd)
		if err != nil {
			return attemptDead
		}
		switch {
		case status == '-' && strings.HasPrefix(line, "-RETRY"):
			return attemptRetry
		case status == '-':
			return attemptDead
		}
		switch o.verb {
		case "GET":
			reads.Add(1)
		case "SET":
			writes.Add(1)
		case "DEL":
			dels.Add(1)
		case "SCAN":
			scans.Add(1)
		}
	}
	status, line, err := c.roundTrip("COMMIT")
	switch {
	case err != nil:
		return attemptDead
	case status == '+':
		return attemptOK
	case strings.HasPrefix(line, "-RETRY"):
		return attemptRetry
	}
	return attemptDead
}

// roundTrip sends one statement and reads its reply (consuming a
// multi-line "*<n>" array wholly). status is the reply's first byte.
func (c *client) roundTrip(cmd string) (status byte, line string, err error) {
	t0 := time.Now()
	c.bw.WriteString(cmd)
	c.bw.WriteString("\r\n")
	if err := c.bw.Flush(); err != nil {
		return 0, "", err
	}
	line, err = c.readLine()
	if err != nil || line == "" {
		return 0, line, fmt.Errorf("loadgen: empty or failed reply to %q: %w", cmd, err)
	}
	if line[0] == '*' {
		n, convErr := strconv.Atoi(line[1:])
		if convErr != nil {
			return 0, line, fmt.Errorf("loadgen: bad array header %q", line)
		}
		for i := 0; i < n; i++ {
			if _, err := c.readLine(); err != nil {
				return 0, line, err
			}
		}
		// An array reply is a successful scan.
		c.stmt.Record(time.Since(t0).Nanoseconds())
		return '+', line, nil
	}
	c.stmt.Record(time.Since(t0).Nanoseconds())
	return line[0], line, nil
}

func (c *client) readLine() (string, error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}
