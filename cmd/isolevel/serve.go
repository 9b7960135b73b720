package main

import (
	"flag"
	"fmt"
	"net"
	"strings"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/loadgen"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/obs"
	"isolevel/internal/obs/obshttp"
	"isolevel/internal/obs/wallclock"
	"isolevel/internal/server"
)

// serveDB builds the engine behind `isolevel serve`: one of the three
// servable families, optionally striped, with the family-appropriate
// default session level.
func serveDB(family string, shards int) (engine.DB, engine.Level, error) {
	switch family {
	case "locking":
		opts := []locking.Option{}
		if shards > 0 {
			opts = append(opts, locking.WithShards(shards))
		}
		return locking.NewDB(opts...), engine.Serializable, nil
	case "keyrange":
		opts := []locking.Option{locking.WithPhantomProtection(locking.PhantomKeyrange)}
		if shards > 0 {
			opts = append(opts, locking.WithShards(shards))
		}
		return locking.NewDB(opts...), engine.Serializable, nil
	case "mv", "mvcc":
		opts := []mvcc.Option{}
		if shards > 0 {
			opts = append(opts, mvcc.WithShards(shards))
		}
		return mvcc.NewDB(opts...), engine.SnapshotIsolation, nil
	}
	return nil, 0, fmt.Errorf("unknown family %q (locking, keyrange, mv)", family)
}

// cmdServe runs the network front-end: the wire protocol over one
// engine, until SIGINT/SIGTERM.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7401", "listen address for the wire protocol")
	family := fs.String("family", "keyrange", "engine family: locking, keyrange, mv")
	shards := fs.Int("shards", 0, "engine stripe count (0 = default)")
	levelName := fs.String("level", "", "default session isolation level (default: SERIALIZABLE for locking families, SNAPSHOT ISOLATION for mv)")
	maxSessions := fs.Int("max-sessions", server.DefaultMaxSessions, "admission control: concurrent sessions before -BUSY")
	preload := fs.Int("preload", 0, "preload this many acct:NNNNNN rows (value 100) so load runs start warm")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, level, err := serveDB(*family, *shards)
	if err != nil {
		return err
	}
	if *levelName != "" {
		lvl, err := parseLevel(*levelName)
		if err != nil {
			return err
		}
		level = lvl
	}
	if *preload > 0 {
		loadAccts(db, *preload)
	}
	// The engine histograms (lock waits, commit path, txn latency) ride
	// one wall-clock sink beside the server's statement histogram.
	sink := obs.NewSink(wallclock.New())
	if so, ok := db.(interface{ SetObs(*obs.Sink) }); ok {
		so.SetObs(sink)
	}
	srv := server.New(server.Config{
		DB:           db,
		DefaultLevel: level,
		Family:       *family,
		MaxSessions:  *maxSessions,
	})
	if *httpAddr != "" {
		counters := func() map[string]int64 {
			m := srv.Counters()
			for k, v := range engineCounters(db) {
				m[k] = v
			}
			return m
		}
		gauges := func() map[string]int64 { return engineGauges(db) }
		ep, err := obshttp.Serve(*httpAddr, obshttp.Source{Sink: sink, Counters: counters, Gauges: gauges, Hists: srv.Hists})
		if err != nil {
			return err
		}
		defer func() { _ = ep.Close() }()
		fmt.Printf("obs: serving /metrics, /debug/pprof/ and /debug/vars on http://%s\n", ep.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serve: family=%s level=%s sessions<=%d on %s\n",
		*family, level, *maxSessions, ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	waitForInterrupt()
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}
	c := srv.Counters()
	fmt.Printf("serve: done; sessions=%d shed=%d stmts=%d commits=%d retryable=%d errors=%d\n",
		c["server_sessions_accepted"], c["server_sessions_shed"], c["server_stmts"],
		c["server_commits"], c["server_retryable_errors"], c["server_errors"])
	return nil
}

// loadAccts bulk-loads the loadgen's key space (acct:000000 ...).
func loadAccts(db engine.DB, n int) {
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		tuples[i] = data.Tuple{Key: data.Key(fmt.Sprintf("acct:%06d", i)), Row: data.Scalar(100)}
	}
	db.Load(tuples...)
}

// cmdLoad runs the load generator against a running server and prints
// the run report.
func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7401", "server address")
	clients := fs.Int("clients", 4, "client connections")
	txns := fs.Int("txns", 1000, "transactions across admitted clients")
	rate := fs.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
	keys := fs.Int("keys", 64, "key-space size")
	hotKeys := fs.Int("hot-keys", 0, "hot-set size (0 = keys/16)")
	hotBias := fs.Float64("hot-bias", 0.5, "probability an op hits the hot set")
	ops := fs.Int("ops", 4, "data statements per transaction")
	readFrac := fs.Float64("read-frac", 0.5, "fraction of ops that GET")
	scanFrac := fs.Float64("scan-frac", 0, "fraction of ops that SCAN")
	delFrac := fs.Float64("del-frac", 0, "fraction of ops that DEL")
	levelsFlag := fs.String("levels", "", "comma list of isolation levels sampled per transaction (empty = server default)")
	retries := fs.Int("retries", 10, "max retries per transaction on -RETRY")
	seed := fs.Int64("seed", 1, "rng seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := loadgen.Config{
		Addr: *addr, Clients: *clients, Txns: *txns, Rate: *rate,
		Keys: *keys, HotKeys: *hotKeys, HotBias: *hotBias,
		OpsPerTxn: *ops, ReadFrac: *readFrac, ScanFrac: *scanFrac, DelFrac: *delFrac,
		Retries: *retries, Seed: *seed,
	}
	if *levelsFlag != "" {
		for _, name := range strings.Split(*levelsFlag, ",") {
			lvl, err := parseLevel(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			cfg.Levels = append(cfg.Levels, lvl)
		}
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	if res.ProtoErrs > 0 {
		return fmt.Errorf("%d protocol error(s)", res.ProtoErrs)
	}
	return nil
}
