package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/obs"
	"isolevel/internal/obs/wallclock"
	"isolevel/internal/server"
)

// engineDB is what every servable family offers beyond engine.DB.
type engineDB interface {
	engine.DB
	LockStats() lock.Stats
	SetObs(*obs.Sink)
}

// newEngine builds a family exactly as cmd/isolevel serve.go:serveDB does,
// with the family's default session level.
func newEngine(family string) (engineDB, engine.Level) {
	switch family {
	case "keyrange":
		return locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange)), engine.Serializable
	case "predicate":
		return locking.NewDB(), engine.Serializable
	case "mv":
		return mvcc.NewDB(), engine.SnapshotIsolation
	}
	panic("benchmark: unknown engine family " + family)
}

// repConfig is one repetition: a workload at a seed, on a fresh engine.
type repConfig struct {
	workload
	seed    int64
	clients int
	traced  bool
	wrap    func(conn) conn // nil outside tests, where it interposes a fake
}

type repResult struct {
	attempted  int // transactions the repetition was asked to commit
	failed     int // of those, not committed: retry budget, deadline, or a protocol failure
	commits    int
	retries    int
	fcwRetries int
	violations []string
	hung       bool // a client never came back; the process must not run further repetitions

	elapsed time.Duration // measured phase
	setup   time.Duration // engine, Load, listener, connects and warm-up

	tps          float64
	p50us, p99us float64
	allocsPerTxn float64
	heapMB       float64

	layer map[string]float64 // traced repetitions only
	trace *traceSummary
	spans []span
}

// runRep runs set-up, a warm-up of a tenth of the count, the measured
// count and the checks.
func runRep(cfg repConfig) repResult {
	res := repResult{attempted: cfg.txns, failed: cfg.txns}
	runtime.GC() // the previous repetition's engine must not weigh on this one
	setupStart := time.Now()
	deadline := setupStart.Add(repDeadline)

	db, level := newEngine(cfg.family)
	db.Load(initialRows(cfg.traffic)...)
	var target engine.DB = db
	var sink *obs.Sink
	var etrace *engineTrace
	if cfg.traced {
		sink = obs.NewSink(wallclock.New())
		db.SetObs(sink)
		etrace = &engineTrace{base: setupStart}
		target = &timedDB{DB: db, trace: etrace}
	}

	var srv *server.Server
	var addr string
	served := make(chan error, 1)
	if cfg.attach == attachWire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			res.violations = []string{"setup: " + err.Error()}
			return res
		}
		addr = ln.Addr().String()
		srv = server.New(server.Config{DB: target, DefaultLevel: level, Family: cfg.family})
		go func() { served <- srv.Serve(ln) }()
	}
	stop := func() {
		if srv != nil {
			srv.Close()
			if err := <-served; err != nil {
				res.violations = append(res.violations, "server: "+err.Error())
			}
			srv = nil
		}
	}

	clients := make([]*client, cfg.clients)
	closeClients := func() {
		for _, c := range clients {
			if c != nil {
				c.conn.Close()
			}
		}
	}
	for i := range clients {
		var cn conn
		switch cfg.attach {
		case attachEmbed:
			cn = &embedConn{db: target, level: level}
		case attachSession:
			cn = newSessionConn(target, level)
		case attachWire:
			wc, err := dialWire(addr, deadline.Add(time.Second))
			if err != nil {
				res.violations = []string{"setup: " + err.Error()}
				closeClients()
				stop()
				return res
			}
			cn = wc
		}
		if cfg.wrap != nil {
			cn = cfg.wrap(cn)
		}
		c := &client{id: i, gen: newGenerator(cfg.traffic, cfg.seed, i), base: setupStart}
		if cfg.traced {
			c.spans = new([]span)
			cn = &tracedConn{conn: cn, client: i, base: setupStart, spans: c.spans}
		}
		c.conn = cn
		clients[i] = c
	}

	hung := func() repResult {
		// Client goroutines are still inside the engine: only their
		// atomic commit counters are safe to read, and nothing can be
		// closed without racing them.
		res.hung = true
		res.violations = append(res.violations, fmt.Sprintf("repetition hung past its %v deadline", repDeadline))
		return res
	}
	if !runPhase(clients, cfg.txns/warmupShare, deadline) {
		return hung()
	}
	res.setup = time.Since(setupStart)

	before := readCounters(db, srv, sink)
	if etrace != nil {
		etrace.reset()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	finished := runPhase(clients, cfg.txns, deadline)
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	if !finished {
		for _, c := range clients {
			res.commits += int(c.commits.Load())
		}
		res.failed = cfg.txns - res.commits
		return hung()
	}
	after := readCounters(db, srv, sink)
	closeClients()
	stop()

	var lat []int64
	for _, c := range clients {
		res.commits += int(c.commits.Load())
		res.retries += c.retries
		res.fcwRetries += c.fcwRetries
		res.violations = append(res.violations, c.violations...)
		lat = append(lat, c.latencies...)
	}
	res.failed = cfg.txns - res.commits
	res.violations = append(res.violations, checkFinalState(db, cfg.traffic)...)
	if res.commits > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.tps = float64(res.commits) / res.elapsed.Seconds()
		res.p50us = float64(percentile(lat, 0.50)) / 1e3
		res.p99us = float64(percentile(lat, 0.99)) / 1e3
		res.allocsPerTxn = float64(m1.Mallocs-m0.Mallocs) / float64(res.commits)
	}
	if cfg.traced {
		res.layerMetrics(cfg, clients, etrace.spans, before, after)
	}

	// Heap with the engine still referenced and everything else dropped.
	clients, lat = nil, nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(db)
	return res
}

// runPhase gives each client its share of n transactions and waits for
// all of them. It reports false when a client is still running a grace
// period after the deadline: clients check the deadline between
// transactions and wire connections carry it, so that means a call into
// the engine never returned.
func runPhase(clients []*client, n int, deadline time.Time) bool {
	var wg sync.WaitGroup
	for i, c := range clients {
		share := n / len(clients)
		if i < n%len(clients) {
			share++
		}
		c.reset(share)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(share, deadline)
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(time.Until(deadline) + 2*time.Second):
		return false
	}
}

// percentile returns the exact q-quantile of sorted samples: the smallest
// sample with at least q of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// checkFinalState is the end-of-repetition oracle: transfers conserve the
// total balance; row moves conserve every group's row count and sum.
func checkFinalState(db engine.DB, traffic string) []string {
	var bad []string
	if traffic == trafficScanmove {
		for g := 0; g < groups; g++ {
			n, sum := 0, int64(0)
			for s := 0; s < slots; s++ {
				if row := db.ReadCommittedRow(data.Key(slotKey(g, s))); row != nil {
					n++
					sum += row.Val()
				}
			}
			if n != rowsPerGrp || sum != groupSum {
				bad = append(bad, fmt.Sprintf("group %d ends with %d rows summing to %d, want %d rows summing to %d",
					g, n, sum, rowsPerGrp, groupSum))
			}
		}
		return bad
	}
	var sum int64
	for _, k := range acctKeys {
		row := db.ReadCommittedRow(data.Key(k))
		if row == nil {
			bad = append(bad, "account "+k+" is gone")
			continue
		}
		sum += row.Val()
	}
	if want := int64(accounts * startBalance); sum != want {
		bad = append(bad, fmt.Sprintf("balances sum to %d, want %d", sum, want))
	}
	return bad
}

// counters is a point-in-time copy of every public counter the traced
// pass reads; metrics are differences between two copies, so the warm-up
// does not count.
type counters struct {
	locks                                 lock.Stats
	serverStmt                            obs.HistSnapshot
	lockWait, rangeWait, scan, commitPath obs.HistSnapshot
}

func readCounters(db engineDB, srv *server.Server, sink *obs.Sink) counters {
	c := counters{locks: db.LockStats()}
	if srv != nil {
		c.serverStmt = srv.Hists()[0].H.Snapshot()
	}
	if sink != nil {
		c.lockWait, c.rangeWait = sink.LockWait.Snapshot(), sink.RangeWait.Snapshot()
		c.scan, c.commitPath = sink.Scan.Snapshot(), sink.CommitPath.Snapshot()
	}
	return c
}

// traceSummary is the self-time account of one traced repetition: a
// layer's self time is its spans' duration minus its children's.
type traceSummary struct {
	File           string             `json:"file,omitempty"`
	Spans          int                `json:"spans"`
	TxnSeconds     float64            `json:"txn_seconds"`
	SelfShare      map[string]float64 `json:"self_share"`
	AccountedShare float64            `json:"accounted_share"`
}

// layerMetrics turns a traced repetition's spans and counter deltas into
// the workload-dependent per-layer metrics.
func (res *repResult) layerMetrics(cfg repConfig, clients []*client, engineSpans []span, before, after counters) {
	var txnNs, stmtNs, wastedNs, stmts float64
	for _, c := range clients {
		txnNs += float64(c.txnNs)
		wastedNs += float64(c.wastedNs)
		for _, s := range *c.spans {
			if s.name != "txn" {
				stmtNs += float64(s.end - s.start)
				stmts++
			}
		}
		res.spans = append(res.spans, *c.spans...)
	}
	res.spans = append(res.spans, engineSpans...)
	opNs, opCount := map[string]float64{}, map[string]float64{}
	var engineNs float64
	for _, s := range engineSpans {
		opNs[s.name] += float64(s.end - s.start)
		opCount[s.name]++
		engineNs += float64(s.end - s.start)
	}
	serverNs := float64(after.serverStmt.Sum - before.serverStmt.Sum)
	waitNs := float64(after.lockWait.Sum - before.lockWait.Sum + after.rangeWait.Sum - before.rangeWait.Sum)
	capacityNs := float64(cfg.clients) * float64(res.elapsed)
	commits := float64(res.commits)

	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	histMeanUs := func(b, a obs.HistSnapshot) float64 { return per(float64(a.Sum-b.Sum), float64(a.Count-b.Count)) / 1e3 }
	m := map[string]float64{}
	for _, op := range []string{"begin", "get", "put", "del", "select", "commit", "abort"} {
		m["engine."+op+"_us"] = per(opNs[op], opCount[op]) / 1e3
	}
	m["engine.busy_share"] = per(engineNs, capacityNs)
	lb, la := before.locks, after.locks
	m["lock.grants_per_txn"] = per(float64(la.Grants-lb.Grants), commits)
	m["lock.waits_per_txn"] = per(float64(la.Waits-lb.Waits), commits)
	m["lock.deadlocks_per_txn"] = per(float64(la.Deadlocks-lb.Deadlocks), commits)
	m["lock.range_grants_per_txn"] = per(float64(la.RangeGrants-lb.RangeGrants), commits)
	m["lock.gap_grants_per_txn"] = per(float64(la.GapGrants-lb.GapGrants), commits)
	m["lock.pred_grants_per_txn"] = per(float64(la.PredGrants-lb.PredGrants), commits)
	m["lock.gate_acquires_per_txn"] = per(float64(la.GateAcquires-lb.GateAcquires), commits)
	m["lock.wait_share"] = per(waitNs, capacityNs)
	m["sv.scan_us"] = histMeanUs(before.scan, after.scan)
	if cfg.family == "mv" {
		m["mvcc.commit_path_us"] = histMeanUs(before.commitPath, after.commitPath)
	}
	m["mvcc.fcw_aborts_per_txn"] = per(float64(res.fcwRetries), commits)
	m["client.retries_per_txn"] = per(float64(res.retries), commits)
	m["client.retry_wasted_share"] = per(wastedNs, txnNs)

	// Self times along client -> server -> session -> engine -> lock wait.
	// At embed and session there is no wire, so the statement time beyond
	// the engine's belongs to the client (and the in-process session).
	self := map[string]float64{"client": txnNs - stmtNs, "engine": engineNs - waitNs, "lock_wait": waitNs}
	if cfg.attach == attachWire {
		self["server"] = stmtNs - serverNs
		self["session"] = serverNs - engineNs
		m["server.wire_us_per_stmt"] = per(self["server"], stmts) / 1e3
		m["session.self_us_per_stmt"] = per(self["session"], stmts) / 1e3
	} else {
		self["client"] = txnNs - engineNs
	}
	sum := traceSummary{Spans: len(res.spans), TxnSeconds: txnNs / 1e9, SelfShare: map[string]float64{}}
	for layer, ns := range self {
		share := per(math.Max(ns, 0), txnNs)
		sum.SelfShare[layer] = share
		sum.AccountedShare += share
	}
	res.layer, res.trace = m, &sum
}
