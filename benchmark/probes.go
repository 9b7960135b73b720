package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/lock"
	"isolevel/internal/mv"
	"isolevel/internal/predicate"
	"isolevel/internal/server"
	"isolevel/internal/session"
	"isolevel/internal/sv"
)

// Probes price single calls into each module's public functions, single
// threaded and at fixed iteration counts, so their values do not depend
// on the workload being traced. Each reports the fastest of a few rounds:
// on one thread, whatever else the host does only ever adds time.

const (
	probeRounds  = 3
	budgetRounds = 5 // the layer budget is a difference of two timings, so it gets more
)

// timeProbe returns the per-iteration time of body(n) in ns.
func timeProbe(n int, body func(n int)) float64 {
	best := math.Inf(1)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		body(n)
		best = min(best, float64(time.Since(start))/float64(n))
	}
	return best
}

// probeMetrics runs every probe; div scales the iteration counts down for
// -quick runs.
func probeMetrics(seed int64, div int) (map[string]float64, error) {
	m := map[string]float64{}
	lo, hi := groupBounds(groups / 2)
	rng := predicate.KeyRange{Lo: data.Key(lo), Hi: data.Key(hi)}
	scanTable := initialRows(trafficScanmove)
	keyAt := func(i int) data.Key { return scanTable[i%len(scanTable)].Key }

	// lock: one exclusive item lock; one range lock over a group's 32
	// anchors; one predicate lock; each followed by ReleaseAll.
	store := sv.NewStore()
	store.Load(scanTable...)
	lm := lock.NewManager()
	lm.SetRowPresent(store.Exists)
	var lockErr error
	m["lock.item_xlock_ns"] = timeProbe(200000/div, func(n int) {
		for i := 0; i < n; i++ {
			if err := lm.AcquireItem(1, keyAt(i), lock.X, lock.Images{}); err != nil {
				lockErr = err
			}
			lm.ReleaseAll(1)
		}
	})
	spec := lock.RangeSpec{Pred: rng, Lo: rng.Lo, Hi: rng.Hi, Bounded: true,
		SnapshotInto: func(r *data.KeyRuns) data.Key { return store.AppendRangeAnchors(r, rng.Lo, rng.Hi, true) }}
	m["lock.range_install_us"] = timeProbe(20000/div, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := lm.AcquireRange(1, spec); err != nil {
				lockErr = err
			}
			lm.ReleaseAll(1)
		}
	}) / 1e3
	m["lock.pred_install_us"] = timeProbe(20000/div, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := lm.AcquirePred(1, rng, lock.S); err != nil {
				lockErr = err
			}
			lm.ReleaseAll(1)
		}
	}) / 1e3
	if lockErr != nil {
		return nil, fmt.Errorf("lock probe: %w", lockErr)
	}

	// sv: a put over an existing row; a one-group range select over the
	// 2,048-row table.
	row := data.Scalar(slotValue)
	m["sv.put_ns"] = timeProbe(200000/div, func(n int) {
		for i := 0; i < n; i++ {
			store.Put(keyAt(i), row)
		}
	})
	var selected int
	m["sv.select_range_us"] = timeProbe(2000/div, func(n int) {
		for i := 0; i < n; i++ {
			selected = len(store.Select(rng))
		}
	}) / 1e3
	if selected != rowsPerGrp {
		return nil, fmt.Errorf("sv probe: range select returned %d rows, want %d", selected, rowsPerGrp)
	}

	// mv: snapshot read, range select at a snapshot, timestamp
	// allocate-and-retire, and a one-row install (last: it grows chains).
	var oracle mv.Oracle
	mstore := mv.NewStore()
	ts := oracle.Next()
	mstore.Load(ts, scanTable...)
	oracle.Done(ts)
	m["mv.read_at_ns"] = timeProbe(200000/div, func(n int) {
		for i := 0; i < n; i++ {
			mstore.ReadAt(keyAt(i), ts)
		}
	})
	m["mv.select_range_us"] = timeProbe(500/div, func(n int) {
		for i := 0; i < n; i++ {
			selected = len(mstore.SelectAt(rng, ts))
		}
	}) / 1e3
	if selected != rowsPerGrp {
		return nil, fmt.Errorf("mv probe: range select returned %d rows, want %d", selected, rowsPerGrp)
	}
	m["mv.oracle_next_done_ns"] = timeProbe(200000/div, func(n int) {
		for i := 0; i < n; i++ {
			oracle.Done(oracle.Next())
		}
	})
	writes := map[data.Key]data.Row{}
	m["mv.install_ns"] = timeProbe(50000/div, func(n int) {
		for i := 0; i < n; i++ {
			key := keyAt(i)
			writes[key] = row
			mstore.Install(oracle.Next(), 1, writes)
			delete(writes, key)
		}
	})

	// session: Exec("GET k") against engine.GetVal, both inside one open
	// SERIALIZABLE transaction, so the difference is parse and reply.
	db, level := newEngine("keyrange")
	db.Load(initialRows(trafficTransfer)...)
	sess := session.New(db, level, nil)
	if reply, _ := sess.Exec("BEGIN"); reply[0] != '+' {
		return nil, fmt.Errorf("session probe: BEGIN: %s", reply)
	}
	var reply string
	execNs := timeProbe(100000/div, func(n int) {
		for i := 0; i < n; i++ {
			reply, _ = sess.Exec("GET " + acctKeys[i%accounts])
		}
	})
	sess.Close()
	if reply[0] != ':' {
		return nil, fmt.Errorf("session probe: GET: %s", reply)
	}
	tx, err := db.Begin(level)
	if err != nil {
		return nil, fmt.Errorf("session probe: %w", err)
	}
	var getErr error
	getNs := timeProbe(100000/div, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := engine.GetVal(tx, data.Key(acctKeys[i%accounts])); err != nil {
				getErr = err
			}
		}
	})
	_ = tx.Abort()
	if getErr != nil {
		return nil, fmt.Errorf("session probe: %w", getErr)
	}
	m["session.exec_overhead_ns"] = execNs - getNs

	// server: PING round trip on a loopback connection.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ping probe: %w", err)
	}
	srv := server.New(server.Config{DB: db, DefaultLevel: level, Family: "keyrange"})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	wc, err := dialWire(ln.Addr().String(), time.Now().Add(repDeadline))
	if err == nil {
		m["server.ping_roundtrip_us"] = timeProbe(10000/div, func(n int) {
			for i := 0; i < n; i++ {
				if r, e := wc.exec("PING"); e != nil || r != "+PONG" {
					err = fmt.Errorf("reply %q: %v", r, e)
				}
			}
		}) / 1e3
		wc.Close()
	}
	srv.Close()
	if serveErr := <-served; err == nil {
		err = serveErr
	}
	if err != nil {
		return nil, fmt.Errorf("ping probe: %w", err)
	}

	// The layer budget: the uniform transfer stream from one client, so
	// counts repeat exactly, at each attach point. A layer's cost is the
	// difference between adjacent attach points, so the rounds interleave
	// the attach points: drift on the host then moves all three alike.
	budget := []struct {
		attach string
		txns   int
		us     float64
	}{{attachEmbed, 20000, math.Inf(1)}, {attachSession, 20000, math.Inf(1)}, {attachWire, 5000, math.Inf(1)}}
	for round := 0; round < budgetRounds; round++ {
		for i := range budget {
			b := &budget[i]
			res := runRep(repConfig{
				workload: workload{traffic: trafficTransfer, family: "keyrange", attach: b.attach, txns: b.txns / div},
				seed:     seed, clients: 1,
			})
			if len(res.violations) > 0 || res.failed > 0 {
				return nil, fmt.Errorf("layer budget at %s: %d failed, violations %v", b.attach, res.failed, res.violations)
			}
			b.us = min(b.us, float64(res.elapsed)/float64(res.commits)/1e3)
		}
	}
	m["locking.us_per_txn"] = budget[0].us
	m["session.us_per_txn"] = budget[1].us - budget[0].us
	m["server.us_per_txn"] = budget[2].us - budget[1].us
	return m, nil
}
