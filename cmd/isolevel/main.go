// Command isolevel regenerates the evaluation artifacts of "A Critique of
// ANSI SQL Isolation Levels" (SIGMOD 1995) from live engines and analyzes
// histories in the paper's notation.
//
// Usage:
//
//	isolevel tables            regenerate Tables 1, 2, 3 and 4
//	isolevel table -n 4        regenerate one table (1, 2, 3 or 4)
//	isolevel figure2           compute the measured isolation hierarchy
//	isolevel check -history "w1[x] r2[x] c1 c2"
//	                           classify a history: phenomena + serializability
//	isolevel run -id A5B -level "SNAPSHOT ISOLATION"
//	                           execute one anomaly scenario on a live engine
//	isolevel scenarios         list the scenario catalog
//	isolevel paper             replay the paper's H1-H5 analyses
//	isolevel bench -scenario transfer -level "SNAPSHOT ISOLATION" -shards 16
//	                           run one workload scenario and print its metrics
//	isolevel serve -family keyrange -addr 127.0.0.1:7401
//	                           serve the wire protocol over one engine
//	isolevel load -addr 127.0.0.1:7401 -clients 8 -levels SER,SI
//	                           drive a running server with generated traffic
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"

	"isolevel/internal/anomalies"
	"isolevel/internal/ansi"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/exerciser"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/locking"
	"isolevel/internal/matrix"
	"isolevel/internal/mvcc"
	"isolevel/internal/obs"
	"isolevel/internal/obs/obshttp"
	"isolevel/internal/obs/wallclock"
	"isolevel/internal/phenomena"
	"isolevel/internal/report"
	"isolevel/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tables":
		err = cmdTables()
	case "table":
		err = cmdTable(os.Args[2:])
	case "figure2":
		err = cmdFigure2()
	case "check":
		err = cmdCheck(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "scenarios":
		err = cmdScenarios()
	case "paper":
		err = cmdPaper()
	case "remarks":
		err = cmdRemarks()
	case "bench":
		err = cmdBench(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "benchjson":
		err = cmdBenchJSON(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "isolevel: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isolevel:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `isolevel — reproduce "A Critique of ANSI SQL Isolation Levels" (SIGMOD 1995)

commands:
  tables                      regenerate Tables 1-4
  table -n N                  regenerate one table (1, 2, 3 or 4)
  figure2                     measured isolation hierarchy (Figure 2)
  check -history "w1[x] ..."  classify a history in the paper's notation
        -levels "T1=RR T2=RC" additionally judge it with the per-transaction
                              oracle (codes: D0 RU RC CS RR SER SI ORC)
  check -f FILE|-             classify histories from a file or stdin,
                              one per line (fuzz findings, corpus files);
                              a "# levels: T1=RR T2=RC" comment annotates
                              the next history for the per-transaction oracle
  run -id ID [-variant V] -level LEVEL   run one anomaly scenario live
  scenarios                   list the anomaly scenario catalog
  paper                       replay the paper's H1-H5 analyses
  remarks                     verify Remarks 1-10 on the live engines
  bench -scenario S           run one workload scenario and print metrics
        scenarios: transfer, skewed, batch, batch-disjoint, hotspot,
                   hotspot-lockstep, scan, readers, longrunner,
                   fanin, upgrade-storm, pred-mix, phantom-storm,
                   range-fanin
        knobs: -level L -shards N -workers W -iters I -accounts A
               -batch B -hot-bias F -rounds R
        -obs: attach the observability sink and print latency histograms
        -flight N: keep the last N engine events; a deadlock victim dumps
               the flight ring (who waited on whom, who was chosen)
        -http ADDR: serve /metrics (Prometheus text), /debug/pprof/ and
               /debug/vars during and after the run
        -shards stripes every engine family: multiversion store stripes
        and locking-engine lock-table stripes alike
        -phantom predicate|keyrange selects the locking engine's phantom
        protocol: the gated cross-stripe predicate table, or striped
        key-range (next-key) locks that never take the gate
  fuzz -seed S -n N           differential isolation fuzzing: generated
        schedules replayed on every engine family x level, traces checked
        against the Table 4 oracle; findings are shrunk to minimal
        histories in the paper's notation
        -mixed: per-transaction level assignments — every transaction at
        its own sampled level (all six locking degrees in one lock
        manager; SI + RC interleaved on the unified mv engine), judged by
        the per-transaction oracle (a phenomenon is a violation only when
        charged to a transaction whose own level forbids it)
        knobs: -txs -items -ops -abort -mix r:W,w:W,p:W,rc:W,wc:W,i:W,d:W,s:W
               -engines locking,keyrange,snapshot,oraclerc
                        (mixed: locking,keyrange,mv)
               -levels L1,L2 -workers W -shards N -start I -oracle LEVEL -v
               -http ADDR (live pprof/expvar/metrics while the campaign runs)
        findings carry a flight-recorder timeline: the engine-level event
        sequence (begins, waits, grants, upgrades, commits) behind the
        violating history, in deterministic virtual-clock ticks
        the keyrange family is the locking scheduler with key-range
        (next-key) phantom prevention; any divergence from the locking
        family is reported
  serve -addr A               serve the wire protocol over one engine:
        connection-per-session, BEGIN [ISOLATION LEVEL L] / SET
        TRANSACTION ISOLATION LEVEL, GET/SET/DEL/SCAN, COMMIT/ABORT;
        scheduler aborts surface as typed -RETRY errors (see README
        "Serving traffic" for the grammar and retry contract)
        knobs: -family locking|keyrange|mv -shards N -level L
               -max-sessions N (admission control; excess sessions
                are greeted -BUSY and closed)
               -max-inflight N -max-queue N (backpressure; statements
                past the queue are shed with -BUSY)
               -preload N (warm acct:NNNNNN rows for load runs)
               -http ADDR (live /metrics with server counters and the
                statement-latency histogram)
  load -addr A                drive a running server: closed loop
        (-clients N -txns T) or open loop (-rate R arrivals/sec), hot-key
        skew (-keys -hot-keys -hot-bias), op mix (-ops -read-frac
        -scan-frac -del-frac), mixed levels (-levels SER,SI,RC sampled per
        transaction), retry loop (-retries), seeded (-seed); reports
        commits/retries/shed/busy and p50/p90/p99 latency
  benchjson [-match RE]       convert "go test -bench" output on stdin to
        a JSON array, keeping only names matching RE (the make bench-*
        targets write the BENCH_*.json perf artifacts)
  benchjson -compare OLD.json NEW.json-as-positional
        regression guard: compare two benchjson artifacts and fail when a
        shared benchmark's metric (-metric, default allocs/op) regressed
        by more than -max-regress percent (default 25); flags before the
        positional NEW.json; -metric p50|p90|p99|max compare the latency
        summaries the benches report as p50-ns etc.
`)
}

func cmdTables() error {
	if err := cmdTableN(1); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdTableN(2); err != nil {
		return err
	}
	fmt.Println()
	if err := cmdTableN(3); err != nil {
		return err
	}
	fmt.Println()
	return cmdTableN(4)
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	n := fs.Int("n", 4, "table number (1-4)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return cmdTableN(*n)
}

func cmdTableN(n int) error {
	switch n {
	case 1:
		fmt.Print(matrix.RunTable1())
	case 2:
		tbl, mismatches, err := matrix.RunTable2()
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		if len(mismatches) > 0 {
			return fmt.Errorf("table 2 probe mismatches: %s", strings.Join(mismatches, "; "))
		}
	case 3:
		fmt.Print(matrix.RunTable3())
	case 4:
		levels := append(append([]engine.Level{}, matrix.PaperLevels...), matrix.ExtensionLevels...)
		res, err := matrix.RunTable4(levels...)
		if err != nil {
			return err
		}
		fmt.Print(res.Report())
	default:
		return fmt.Errorf("no table %d (the paper has tables 1-4)", n)
	}
	return nil
}

func cmdFigure2() error {
	levels := append(append([]engine.Level{}, matrix.PaperLevels...), matrix.ExtensionLevels...)
	res, err := matrix.RunTable4(levels...)
	if err != nil {
		return err
	}
	fmt.Print(matrix.BuildHierarchy(res))
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	src := fs.String("history", "", "history in the paper's notation, e.g. \"w1[x] r2[x] c1 c2\"")
	levels := fs.String("levels", "", "per-transaction level assignment for -history, e.g. \"T1=RR T2=RC\" (codes: D0 RU RC CS RR SER SI ORC)")
	file := fs.String("f", "", "file of histories, one per line (# comments and blank lines skipped; a \"# levels: T1=RR T2=RC\" line annotates the next history); \"-\" reads stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *src != "" && *file != "":
		return fmt.Errorf("check takes -history or -f, not both")
	case *src != "":
		h, err := history.Parse(*src)
		if err != nil {
			return err
		}
		var assign *exerciser.Assign
		if *levels != "" {
			a, err := exerciser.ParseAssign(*levels)
			if err != nil {
				return err
			}
			assign = &a
		}
		checkOne(h, assign)
		return nil
	case *file != "":
		return checkFile(*file)
	default:
		return fmt.Errorf("check needs -history or -f")
	}
}

// checkFile replays every history in the file (or stdin for "-") through
// the classifier — the replay path for fuzz findings and corpus files. A
// "# levels: T1=RR T2=RC" comment annotates the next history line with a
// per-transaction level assignment; annotated histories are additionally
// judged by the per-transaction oracle, plain ones keep the uniform
// classification only.
func checkFile(path string) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	n, bad := 0, 0
	var pending *exerciser.Assign
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# levels:"); ok {
				a, err := exerciser.ParseAssign(strings.TrimSpace(rest))
				if err != nil {
					return fmt.Errorf("levels annotation before history %d: %w", n+1, err)
				}
				pending = &a
			}
			continue
		}
		assign := pending
		pending = nil
		h, err := history.Parse(line)
		if err != nil {
			bad++
			fmt.Printf("== history %d: PARSE ERROR: %v\n\n", n+1, err)
			n++
			continue
		}
		fmt.Printf("== history %d ==\n", n+1)
		checkOne(h, assign)
		fmt.Println()
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d histories failed to parse", bad, n)
	}
	if n == 0 {
		return fmt.Errorf("no histories in %s", path)
	}
	return nil
}

// checkOne classifies a single history: phenomena (batch matchers, whose
// matches are reused from Profile rather than re-detected per id),
// serializability, and Table 3 admission. With a per-transaction level
// assignment it additionally runs the per-transaction oracle: every
// witnessed phenomenon is charged to its victim, and only the charges a
// victim's own level forbids are violations.
func checkOne(h history.History, assign *exerciser.Assign) {
	fmt.Println("history:", h)
	if assign != nil {
		fmt.Println("levels: ", assign.Annotation())
	}
	fmt.Println()
	prof := phenomena.Profile(h)
	var ids []string
	for id := range prof {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		fmt.Println("phenomena: none")
	} else {
		fmt.Println("phenomena:")
		for _, id := range ids {
			for _, m := range prof[phenomena.ID(id)] {
				fmt.Printf("  %-4s %-18s %s\n", id, phenomena.Name(phenomena.ID(id)), m.Comment)
			}
		}
	}
	if assign != nil {
		fmt.Println()
		fmt.Println("per-transaction oracle:")
		charges := exerciser.NewOracle().Charges(phenomena.Attribution(h), assign.Level)
		if len(charges) == 0 {
			if len(ids) == 0 {
				fmt.Println("  no phenomena witnessed")
			} else {
				fmt.Println("  no violation: every witnessed phenomenon is charged to a transaction whose level allows it (or excused by a below-degree-1 writer)")
			}
		} else {
			for _, c := range charges {
				fmt.Printf("  VIOLATION: %s charged to T%d (%s), against T%d (%s)\n",
					c.ID, c.Victim, assign.Level(c.Victim), c.Other, assign.Level(c.Other))
			}
		}
	}
	fmt.Println()
	if deps.Serializable(h) {
		fmt.Println("conflict-serializable: yes; equivalent serial order:", fmtOrder(deps.EquivalentSerialOrder(h)))
	} else {
		g := deps.BuildGraph(h)
		fmt.Println("conflict-serializable: NO; dependency cycle:", fmtOrder(g.Cycle()))
	}
	fmt.Println()
	fmt.Println("admitted by (phenomenon-based levels, Table 3):")
	for _, lvl := range ansi.Table3 {
		verdict := "admitted"
		if v := lvl.FirstViolation(h); v != "" {
			verdict = "rejected (" + string(v) + ")"
		}
		fmt.Printf("  %-18s %s\n", lvl.Name, verdict)
	}
}

func fmtOrder(order []int) string {
	if order == nil {
		return "-"
	}
	parts := make([]string, len(order))
	for i, tx := range order {
		parts[i] = fmt.Sprintf("T%d", tx)
	}
	return strings.Join(parts, " -> ")
}

func parseLevel(name string) (engine.Level, error) {
	// engine.ParseLevel accepts the paper's full names, the short codes
	// (SER, RR, SI, ...) and underscore forms — the same grammar the wire
	// protocol's BEGIN/SET TRANSACTION use.
	if lvl, ok := engine.ParseLevel(name); ok {
		return lvl, nil
	}
	return 0, fmt.Errorf("unknown level %q (try one of: %s)", name, levelNames())
}

func levelNames() string {
	var names []string
	for _, lvl := range engine.Levels {
		names = append(names, lvl.String())
	}
	return strings.Join(names, ", ")
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	id := fs.String("id", "A5B", "anomaly id (P0, P1, P4C, P4, P2, P3, A5A, A5B)")
	variant := fs.String("variant", "", "scenario variant (\"\", cursor, constraint, two-cursors)")
	levelName := fs.String("level", "SNAPSHOT ISOLATION", "isolation level")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLevel(*levelName)
	if err != nil {
		return err
	}
	var sc *anomalies.Scenario
	for _, cand := range anomalies.Catalog() {
		if cand.ID == *id && cand.Variant == *variant {
			c := cand
			sc = &c
			break
		}
	}
	if sc == nil {
		return fmt.Errorf("no scenario %s/%s (see `isolevel scenarios`)", *id, *variant)
	}
	fmt.Printf("scenario %s (%s) at %s\n", sc.ID, sc.Description, level)
	out, res, err := anomalies.Run(*sc, level)
	if err != nil {
		return err
	}
	for _, st := range res.Steps {
		status := "ok"
		switch {
		case st.Skipped:
			status = "skipped"
		case st.Err != nil:
			status = st.Err.Error()
		case st.Blocked:
			status = "blocked, then completed"
		}
		val := ""
		if st.Value != nil {
			val = fmt.Sprintf(" -> %v", st.Value)
		}
		fmt.Printf("  %-24s %s%s\n", st.Name, status, val)
	}
	fmt.Println("verdict:", out)
	if len(res.History) > 0 {
		fmt.Println("recorded history:", res.History)
	}
	return nil
}

func cmdScenarios() error {
	for _, sc := range anomalies.Catalog() {
		v := sc.Variant
		if v == "" {
			v = "plain"
		}
		fmt.Printf("%-4s %-12s %s\n", sc.ID, v, sc.Description)
	}
	return nil
}

func cmdRemarks() error {
	results, err := matrix.VerifyRemarks()
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		fmt.Println(r)
		if !r.OK {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d remark(s) failed to reproduce", failed)
	}
	fmt.Println("\nAll 10 remarks reproduced on the live engines.")
	return nil
}

func cmdBench(args []string) error { return runBench(os.Stdout, args) }

// runBench is cmdBench behind an explicit writer, so tests can capture a
// run's full text and assert the stats sections render byte-stably.
func runBench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	scenario := fs.String("scenario", "transfer", "workload scenario (transfer, skewed, batch, batch-disjoint, hotspot, hotspot-lockstep, scan, readers, longrunner, fanin, upgrade-storm, pred-mix, phantom-storm, range-fanin)")
	levelName := fs.String("level", "SNAPSHOT ISOLATION", "isolation level")
	phantom := fs.String("phantom", "predicate", "locking-engine phantom protocol: predicate (gated cross-stripe table) or keyrange (striped next-key locks)")
	shards := fs.Int("shards", 0, "stripe count for every engine: multiversion store stripes and locking lock-table stripes (0 = default)")
	workers := fs.Int("workers", 4, "concurrent workers / sessions")
	iters := fs.Int("iters", 200, "transactions per worker (free-running scenarios)")
	accounts := fs.Int("accounts", 64, "number of account rows")
	batch := fs.Int("batch", 4, "keys written per transaction (batch scenarios)")
	hotBias := fs.Float64("hot-bias", 0.8, "probability a skewed-transfer source is drawn from the hot set")
	rounds := fs.Int("rounds", 50, "lockstep rounds (hotspot-lockstep, scan, fanin, upgrade-storm, pred-mix)")
	obsOn := fs.Bool("obs", false, "attach the observability sink (wall-clock) and print latency histograms after the run")
	flight := fs.Int("flight", 0, "flight-recorder depth: keep the last N engine events and print a dump when a deadlock victim is selected (implies -obs)")
	httpAddr := fs.String("http", "", "serve /metrics, /debug/pprof/ and /debug/vars on this address during and after the run (implies -obs; blocks after printing — Ctrl-C to exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLevel(*levelName)
	if err != nil {
		return err
	}
	var db engine.DB
	switch *phantom {
	case "", "predicate":
		db = anomalies.NewDBForShards(level, *shards)
	case "keyrange":
		// The phantom protocol is a locking-engine knob; multiversion
		// levels have no lock-based phantom prevention to swap.
		if level == engine.SnapshotIsolation || level == engine.ReadConsistency {
			return fmt.Errorf("-phantom keyrange applies to the locking levels, not %s", level)
		}
		opts := []locking.Option{locking.WithPhantomProtection(locking.PhantomKeyrange)}
		if *shards > 0 {
			opts = append(opts, locking.WithShards(*shards))
		}
		db = locking.NewDB(opts...)
	default:
		return fmt.Errorf("unknown phantom protocol %q (predicate, keyrange)", *phantom)
	}
	// Observability: a wall-clock sink, attached only on request so the
	// default bench path keeps its nil-sink zero-cost hooks.
	var sink *obs.Sink
	var deadlockDump string
	var dumpOnce sync.Once
	if *obsOn || *flight > 0 || *httpAddr != "" {
		sink = obs.NewSink(wallclock.New())
		if *flight > 0 {
			sink = sink.WithFlight(*flight)
			// Keep the first victim's dump: later deadlocks in the same
			// storm overwrite the ring but the first cycle is the story.
			sink.OnDeadlock(func(dump string) {
				dumpOnce.Do(func() { deadlockDump = dump })
			})
		}
		if so, ok := db.(interface{ SetObs(*obs.Sink) }); ok {
			so.SetObs(sink)
		} else {
			return fmt.Errorf("engine for %s does not support observability", level)
		}
	}
	var ep *obshttp.Endpoint
	if *httpAddr != "" {
		var err error
		ep, err = obshttp.Serve(*httpAddr, obshttp.Source{Sink: sink,
			Counters: func() map[string]int64 { return engineCounters(db) },
			Gauges:   func() map[string]int64 { return mvGauges(db) }})
		if err != nil {
			return err
		}
		defer func() { _ = ep.Close() }()
		fmt.Fprintf(w, "obs: serving /metrics, /debug/pprof/ and /debug/vars on http://%s\n", ep.Addr())
	}
	header := func() {
		fmt.Fprintf(w, "scenario %s at %s (workers=%d", *scenario, level, *workers)
		if s, ok := db.(interface{ ShardCount() int }); ok {
			fmt.Fprintf(w, ", shards=%d", s.ShardCount())
		}
		if l, ok := db.(*locking.DB); ok {
			fmt.Fprintf(w, ", phantom=%s", l.PhantomProtection())
		}
		fmt.Fprintln(w, ")")
	}
	switch *scenario {
	case "transfer":
		workload.LoadAccounts(db, *accounts, 100)
		m := workload.Transfer(db, level, *accounts, *workers, *iters)
		header()
		fmt.Fprintf(w, "  %s  throughput=%.0f tx/s\n", m, m.Throughput())
		fmt.Fprintf(w, "  total balance drift: %+d\n", workload.TotalBalance(db, *accounts)-int64(*accounts)*100)
	case "skewed":
		workload.LoadAccounts(db, *accounts, 100)
		m := workload.SkewedTransfer(db, level, *accounts, max(1, *accounts/8), *workers, *iters, *hotBias)
		header()
		fmt.Fprintf(w, "  %s  throughput=%.0f tx/s\n", m, m.Throughput())
		fmt.Fprintf(w, "  total balance drift: %+d\n", workload.TotalBalance(db, *accounts)-int64(*accounts)*100)
	case "batch", "batch-disjoint":
		disjoint := *scenario == "batch-disjoint"
		n := *batch
		if disjoint {
			n = *batch * *workers
		}
		if n > *accounts {
			return fmt.Errorf("need at least %d accounts for %s (-accounts)", n, *scenario)
		}
		workload.LoadAccounts(db, *accounts, 0)
		m := workload.BatchIncrement(db, level, *workers, *iters, *batch, disjoint)
		header()
		fmt.Fprintf(w, "  %s  throughput=%.0f tx/s\n", m, m.Throughput())
	case "hotspot":
		m := workload.HotspotCounter(db, level, *workers, *iters)
		header()
		fmt.Fprintf(w, "  %s  throughput=%.0f tx/s\n", m, m.Throughput())
		fmt.Fprintf(w, "  counter=%d (must equal commits)\n", db.ReadCommittedRow("hot").Val())
	case "hotspot-lockstep":
		m := workload.HotspotCounterLockstep(db, level, *workers, *rounds)
		header()
		fmt.Fprintf(w, "  %s\n", m)
		if level == engine.SnapshotIsolation {
			fmt.Fprintf(w, "  counter=%d over %d rounds (deterministic: one winner per round)\n",
				db.ReadCommittedRow("hot").Val(), *rounds)
		} else {
			fmt.Fprintf(w, "  counter=%d over %d rounds (%d committed increments lost)\n",
				db.ReadCommittedRow("hot").Val(), *rounds, m.Commits-db.ReadCommittedRow("hot").Val())
		}
	case "scan":
		if level != engine.SnapshotIsolation && level != engine.ReadConsistency {
			// The rendezvous would deadlock against long read locks: writers
			// block on scanner-held locks while scanners wait at the barrier
			// (see workload.SnapshotScanVsHotWriters).
			return fmt.Errorf("scenario scan needs a multiversion level (SNAPSHOT ISOLATION or READ CONSISTENCY), got %s", level)
		}
		workload.LoadAccounts(db, *accounts, 100)
		res := workload.SnapshotScanVsHotWriters(db, level, *accounts, max(1, *workers/2), max(1, *workers/2), *rounds)
		header()
		fmt.Fprintf(w, "  scanners: %s\n", res.Scanners)
		fmt.Fprintf(w, "  writers:  %s\n", res.Writers)
		fmt.Fprintf(w, "  unstable scans: %d/%d\n", res.UnstableScans, res.TotalScans)
	case "readers":
		workload.LoadAccounts(db, *accounts, 100)
		rm, wm := workload.ReadersVsWriters(db, level, *accounts, *workers, *workers, *iters)
		header()
		fmt.Fprintf(w, "  readers: %s\n", rm)
		fmt.Fprintf(w, "  writers: %s\n", wm)
	case "longrunner":
		workload.LoadAccounts(db, *accounts, 0)
		committed, longErr, short := workload.LongRunningUpdater(db, level, *accounts, *workers, *iters)
		header()
		fmt.Fprintf(w, "  long txn committed: %v (err: %v)\n", committed, longErr)
		fmt.Fprintf(w, "  short writers: %s\n", short)
	case "fanin":
		rds := max(1, *rounds) // the workloads clamp rounds the same way
		res, err := workload.ReadLockFanIn(db, level, *workers, rds)
		if err != nil {
			return err
		}
		header()
		fmt.Fprintf(w, "  readers: %s\n", res.Readers)
		fmt.Fprintf(w, "  writer:  %s\n", res.Writer)
		fmt.Fprintf(w, "  writer blocked in %d/%d rounds\n", res.WriterBlocked, rds)
	case "upgrade-storm":
		rds := max(1, *rounds)
		m, err := workload.UpgradeDeadlockStorm(db, level, *workers, rds)
		if err != nil {
			return err
		}
		header()
		fmt.Fprintf(w, "  %s\n", m)
		fmt.Fprintf(w, "  one survivor per round: %d commits over %d rounds\n", m.Commits, rds)
	case "pred-mix":
		res, err := workload.PredicateVsItemMix(db, level, *workers, max(1, *rounds))
		if err != nil {
			return err
		}
		header()
		fmt.Fprintf(w, "  scanner: %s\n", res.Scanner)
		fmt.Fprintf(w, "  writers: %s\n", res.Writers)
		fmt.Fprintf(w, "  phantom inserts blocked: %d/%d\n", res.BlockedInserts, res.MatchingInserts)
	case "phantom-storm":
		res, err := workload.PhantomInsertStorm(db, level, *workers, max(1, *rounds))
		if err != nil {
			return err
		}
		header()
		fmt.Fprintf(w, "  scanner: %s\n", res.Scanner)
		fmt.Fprintf(w, "  writers: %s\n", res.Writers)
		fmt.Fprintf(w, "  phantoms seen: %d; inserts blocked: %d\n", res.PhantomsSeen, res.BlockedInserts)
	case "range-fanin":
		res, err := workload.RangeScanVsInsertFanIn(db, level, *workers, max(1, *rounds))
		if err != nil {
			return err
		}
		header()
		fmt.Fprintf(w, "  scanner: %s\n", res.Scanner)
		fmt.Fprintf(w, "  writers: %s\n", res.Writers)
		fmt.Fprintf(w, "  in-range inserts blocked: %d/%d; out-of-range blocked: %d/%d\n",
			res.InsideBlocked, res.InsideTotal, res.OutsideBlocked, res.OutsideTotal)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	printLockStats(w, db)
	if sink != nil {
		printObs(w, sink, deadlockDump)
	}
	if ep != nil {
		fmt.Fprintln(w, "obs: run finished; endpoint still serving (Ctrl-C to exit)")
		waitForInterrupt()
		return ep.Close()
	}
	return nil
}

// printObs prints the sink's latency histograms (nanoseconds, wall clock)
// and, when a deadlock victim was selected under -flight, the captured
// flight-recorder dump. Every histogram prints, empty ones at count=0:
// whether a lock wait happened is the scheduler's choice on a multi-core
// host, and which lines the report has must not be.
func printObs(w io.Writer, sink *obs.Sink, deadlockDump string) {
	fmt.Fprintln(w, "  latency histograms (ns):")
	for _, nh := range sink.Histograms() {
		fmt.Fprintf(w, "    %-14s %s\n", nh.Name, nh.H.Snapshot().Summary())
	}
	if deadlockDump != "" {
		fmt.Fprintln(w, "  first deadlock flight dump:")
		for _, line := range strings.Split(strings.TrimRight(deadlockDump, "\n"), "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// lockCounters flattens a lock-based engine's Stats into the counter map
// behind /metrics (empty for engines without a lock manager). Keys are the
// metric names; report.SortedCounters orders them everywhere they print.
func lockCounters(db engine.DB) map[string]int64 {
	ls, ok := db.(interface{ LockStats() lock.Stats })
	if !ok {
		return nil
	}
	st := ls.LockStats()
	return map[string]int64{
		"lock_grants":     st.Grants,
		"lock_waits":      st.Waits,
		"deadlocks":       st.Deadlocks,
		"upgrades":        st.Upgrades,
		"pred_grants":     st.PredGrants,
		"pred_waits":      st.PredWaits,
		"range_grants":    st.RangeGrants,
		"range_waits":     st.RangeWaits,
		"gap_grants":      st.GapGrants,
		"gap_waits":       st.GapWaits,
		"frag_gcs":        st.FragGCs,
		"frags_reclaimed": st.FragsReclaimed,
		"gate_acquires":   st.GateAcquires,
	}
}

// mvStats reads a multiversion engine's version-store bookkeeping; ok is
// false for engines that keep no versions.
func mvStats(db engine.DB) (st mvcc.Stats, ok bool) {
	mv, ok := db.(interface{ MVStats() mvcc.Stats })
	if !ok {
		return st, false
	}
	return mv.MVStats(), true
}

// engineCounters is lockCounters plus, for a multiversion engine, what
// version GC has forgotten so far.
func engineCounters(db engine.DB) map[string]int64 {
	m := lockCounters(db)
	if st, ok := mvStats(db); ok {
		if m == nil {
			m = map[string]int64{}
		}
		m["mv_versions_reclaimed"] = st.VersionsReclaimed
		m["mv_chains_reclaimed"] = st.ChainsReclaimed
	}
	return m
}

// mvGauges are the multiversion engine's gauges behind /metrics (nil for
// other engines): mv_watermark_lag is commits allocated and not yet
// visible; mv_horizon_lag is how far the oldest open snapshot holds version
// GC back — a value that only grows is a stalled or leaked session.
func mvGauges(db engine.DB) map[string]int64 {
	st, ok := mvStats(db)
	if !ok {
		return nil
	}
	return map[string]int64{
		"mv_watermark_lag":    st.WatermarkLag,
		"mv_horizon_lag":      st.HorizonLag,
		"mv_snapshots_active": st.SnapshotsActive,
	}
}

// printLockStats prints the lock manager counters of lock-based engines —
// the locking scheduler and Read Consistency's write-lock side — including
// the per-stripe contention map. Both summary lines render through the
// shared name-sorted counter renderer (report.CountersLine), so the text is
// byte-stable for a given set of counter values.
func printLockStats(w io.Writer, db engine.DB) {
	ls, ok := db.(interface{ LockStats() lock.Stats })
	if !ok {
		return
	}
	st := ls.LockStats()
	if st.Grants == 0 && st.Waits == 0 {
		return
	}
	fmt.Fprintf(w, "  lock stats: %s\n", report.CountersLine(map[string]int64{
		"grants": st.Grants, "waits": st.Waits, "deadlocks": st.Deadlocks,
		"upgrades": st.Upgrades, "pred-grants": st.PredGrants, "pred-waits": st.PredWaits,
	}))
	fmt.Fprintf(w, "  range stats: %s\n", report.CountersLine(map[string]int64{
		"range-grants": st.RangeGrants, "range-waits": st.RangeWaits,
		"gap-grants": st.GapGrants, "gap-waits": st.GapWaits, "gate-acquires": st.GateAcquires,
	}))
	var parts []string
	for i, ss := range st.PerStripe {
		if ss.Grants == 0 && ss.Waits == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d:%d/%d", i, ss.Grants, ss.Waits))
	}
	fmt.Fprintf(w, "  stripe contention (stripe:grants/waits): %s\n", strings.Join(parts, " "))
	parts = parts[:0]
	for i, ss := range st.PerStripe {
		if ss.GapGrants == 0 && ss.GapWaits == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d:%d/%d", i, ss.GapGrants, ss.GapWaits))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "  gap contention (stripe:grants/waits): %s\n", strings.Join(parts, " "))
	}
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign seed (schedule i's seed derives from seed and start+i)")
	n := fs.Int("n", 100, "number of generated schedules")
	start := fs.Int("start", 0, "first schedule index (rerun a finding with -start I -n 1)")
	txs := fs.Int("txs", 0, "transactions per schedule (0 = default)")
	items := fs.Int("items", 0, "distinct data items (0 = default)")
	ops := fs.Int("ops", 0, "transaction size: each draws 1..2*ops non-terminal ops (0 = default)")
	abortFrac := fs.Float64("abort", -1, "scripted abort probability (negative = default)")
	mix := fs.String("mix", "", "op-kind weights, e.g. r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2 (i=insert, d=delete, s=range scan)")
	engines := fs.String("engines", "", "comma list of engine families (default all: locking,snapshot,oraclerc)")
	levels := fs.String("levels", "", "comma list of isolation levels (default: every level each family implements)")
	workers := fs.Int("workers", 1, "campaign worker goroutines (report is identical at any count)")
	shards := fs.Int("shards", 0, "engine stripe count (0 = default)")
	mixed := fs.Bool("mixed", false, "per-transaction level assignments: sample a level per transaction from each family's set and judge with the per-transaction oracle")
	oracleLevel := fs.String("oracle", "", "check every trace against this level's forbidden set instead of its own (testing hook)")
	noShrink := fs.Bool("no-shrink", false, "skip minimizing findings")
	maxShrink := fs.Int("max-shrink", 5, "maximum findings to minimize (each minimization reruns the schedule many times)")
	verbose := fs.Bool("v", false, "print every finding in full")
	httpAddr := fs.String("http", "", "serve /debug/pprof/, /debug/vars and /metrics on this address during the campaign (blocks after the report — Ctrl-C to exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ep *obshttp.Endpoint
	if *httpAddr != "" {
		// The campaign's engines carry per-run virtual-clock sinks, so the
		// endpoint serves the process views (pprof, expvar) plus an empty
		// /metrics; its value here is live profiling of the fuzzer itself.
		var err error
		ep, err = obshttp.Serve(*httpAddr, obshttp.Source{})
		if err != nil {
			return err
		}
		defer func() { _ = ep.Close() }()
		fmt.Printf("obs: serving /metrics, /debug/pprof/ and /debug/vars on http://%s\n", ep.Addr())
	}
	params := exerciser.DefaultParams()
	if *txs > 0 {
		params.Txs = *txs
	}
	if *items > 0 {
		params.Items = *items
	}
	if *ops > 0 {
		params.OpsPerTx = *ops
	}
	if *abortFrac >= 0 {
		params.AbortFrac = *abortFrac
	}
	if *mix != "" {
		m, err := parseMix(*mix)
		if err != nil {
			return err
		}
		params.Mix = m
	}
	opts := exerciser.Options{
		Seed: *seed, N: *n, Start: *start,
		Params: params, Shards: *shards, Workers: *workers,
		Mixed: *mixed, Shrink: !*noShrink, MaxShrink: *maxShrink,
	}
	if *engines != "" {
		opts.Families = strings.Split(*engines, ",")
	}
	if *levels != "" {
		for _, name := range strings.Split(*levels, ",") {
			lvl, err := parseLevel(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Levels = append(opts.Levels, lvl)
		}
	}
	if *oracleLevel != "" {
		lvl, err := parseLevel(*oracleLevel)
		if err != nil {
			return err
		}
		opts.OracleLevel = &lvl
	}
	rep, err := exerciser.Run(opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if *verbose || rep.Violations() > 0 {
		if d := rep.Detail(); d != "" {
			fmt.Print(d)
		}
	}
	if rep.Violations() > 0 {
		return fmt.Errorf("%d oracle violation(s)", rep.Violations())
	}
	fmt.Println("ok: no Table 4 oracle violations")
	if ep != nil {
		fmt.Println("obs: campaign finished; endpoint still serving (Ctrl-C to exit)")
		waitForInterrupt()
		return ep.Close()
	}
	return nil
}

// waitForInterrupt blocks until SIGINT or SIGTERM: the graceful shutdown
// point for commands that keep their observability endpoint (or server)
// alive after the work finishes, replacing the old unreachable select{}.
func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	signal.Stop(ch)
}

// cmdBenchJSON converts `go test -bench` output on stdin into a JSON
// array, one object per benchmark line: {"name": ..., "iterations": N,
// "metrics": {"ns/op": ..., ...}}. -match keeps only benchmark names
// matching a regexp, so one `make bench` run can be sliced into several
// per-subsystem artifacts. The Makefile's bench-* targets pipe bench
// output through it to emit the BENCH_*.json perf-trajectory artifacts.
func cmdBenchJSON(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	match := fs.String("match", "", "keep only benchmarks whose name matches this regexp")
	compare := fs.String("compare", "", "baseline JSON file; compare against the new JSON file given as the positional argument instead of converting stdin")
	metric := fs.String("metric", "allocs/op", "metric to compare in -compare mode (short aliases: p50, p90, p99, max for the *-ns latency summaries)")
	maxRegress := fs.Float64("max-regress", 25, "fail -compare when the metric regresses by more than this percentage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("benchjson -compare OLD.json takes exactly one positional argument (the new JSON file)")
		}
		// Short aliases for the latency summary metrics the benches report
		// via b.ReportMetric (`-metric p99` reads better than `p99-ns`).
		if full, ok := map[string]string{"p50": "p50-ns", "p90": "p90-ns", "p99": "p99-ns", "max": "max-ns"}[*metric]; ok {
			*metric = full
		}
		return benchCompare(*compare, fs.Arg(0), *metric, *match, *maxRegress)
	}
	var matchRE *regexp.Regexp
	if *match != "" {
		var err error
		if matchRE, err = regexp.Compile(*match); err != nil {
			return fmt.Errorf("benchjson: bad -match regexp: %v", err)
		}
	}
	type benchLine struct {
		Name       string             `json:"name"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	var out []benchLine
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if matchRE != nil && !matchRE.MatchString(fields[0]) {
			continue
		}
		var iters int64
		if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil {
			continue
		}
		bl := benchLine{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			var v float64
			if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
				continue
			}
			bl.Metrics[fields[i+1]] = v
		}
		out = append(out, bl)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(out) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// benchCompare is the CI regression guard behind `benchjson -compare`: it
// loads two benchjson artifacts (the committed baseline and a fresh run)
// and fails when any shared benchmark's metric regressed by more than
// maxRegress percent. Benchmarks present in only one file are skipped —
// adding or retiring a bench must not wedge CI — and entries whose
// baseline metric is zero are skipped too (no meaningful ratio). All
// tracked metrics (ns/op, allocs/op, B/op, ...) are smaller-is-better, so
// "regression" always means new > old.
func benchCompare(oldPath, newPath, metric, match string, maxRegress float64) error {
	var matchRE *regexp.Regexp
	if match != "" {
		var err error
		if matchRE, err = regexp.Compile(match); err != nil {
			return fmt.Errorf("benchjson: bad -match regexp: %v", err)
		}
	}
	type benchLine struct {
		Name       string             `json:"name"`
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	load := func(path string) (map[string]map[string]float64, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var lines []benchLine
		if err := json.Unmarshal(raw, &lines); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		m := map[string]map[string]float64{}
		for _, bl := range lines {
			m[bl.Name] = bl.Metrics
		}
		return m, nil
	}
	oldM, err := load(oldPath)
	if err != nil {
		return err
	}
	newM, err := load(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(oldM))
	for name := range oldM {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	compared := 0
	for _, name := range names {
		if matchRE != nil && !matchRE.MatchString(name) {
			continue
		}
		ov, ok := oldM[name][metric]
		if !ok || ov == 0 {
			continue
		}
		nv, ok := newM[name][metric]
		if !ok {
			continue
		}
		compared++
		pct := (nv - ov) / ov * 100
		status := "ok"
		if pct > maxRegress {
			status = "REGRESSION"
			failures = append(failures, name)
		}
		fmt.Printf("%-60s %s: %g -> %g (%+.1f%%) %s\n", name, metric, ov, nv, pct, status)
	}
	if compared == 0 {
		return fmt.Errorf("benchjson: no comparable benchmarks between %s and %s", oldPath, newPath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed on %s by more than %.0f%%: %s",
			len(failures), metric, maxRegress, strings.Join(failures, ", "))
	}
	fmt.Printf("ok: %d benchmark(s) within %.0f%% on %s\n", compared, maxRegress, metric)
	return nil
}

// parseMix reads "r:4,w:4,p:1,rc:1,wc:1,i:2,d:2,s:2" (any subset;
// omitted kinds get 0). i/d/s are the DML kinds: inserts of fresh keys,
// deletes of live keys, and key-range scans.
func parseMix(src string) (exerciser.Mix, error) {
	var m exerciser.Mix
	for _, part := range strings.Split(src, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return m, fmt.Errorf("bad mix entry %q (want kind:weight)", part)
		}
		var w int
		if _, err := fmt.Sscanf(kv[1], "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", kv[1])
		}
		switch kv[0] {
		case "r":
			m.Read = w
		case "w":
			m.Write = w
		case "p":
			m.PredRead = w
		case "rc":
			m.CurRead = w
		case "wc":
			m.CurWrite = w
		case "i":
			m.Insert = w
		case "d":
			m.Delete = w
		case "s":
			m.RangeRead = w
		default:
			return m, fmt.Errorf("unknown mix kind %q (r, w, p, rc, wc, i, d, s)", kv[0])
		}
	}
	return m, nil
}

func cmdPaper() error {
	fmt.Println("Replaying the paper's Section 3 and 4 history analyses:")
	cases := []struct {
		name string
		h    history.History
		note string
	}{
		{"H1", history.H1(), "inconsistent analysis — violates broad P1 only"},
		{"H2", history.H2(), "inconsistent analysis — violates broad P2 only"},
		{"H3", history.H3(), "phantom — violates broad P3 only"},
		{"H4", history.H4(), "lost update at READ COMMITTED"},
		{"H5", history.H5(), "write skew — passes ANOMALY SERIALIZABLE, not serializable"},
	}
	for _, c := range cases {
		fmt.Printf("\n%s: %s\n  (%s)\n", c.name, c.h, c.note)
		var ids []string
		for id := range phenomena.Profile(c.h) {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		fmt.Println("  phenomena:", strings.Join(ids, ", "))
		fmt.Println("  serializable:", deps.Serializable(c.h))
		fmt.Println("  ANOMALY SERIALIZABLE admits:", ansi.AnomalySerializable.Admits(c.h))
	}
	fmt.Println("\nH1.SI mapping (§4.2):")
	txns := deps.FromMVHistory(history.H1SI())
	sv := deps.MapToSV(txns)
	fmt.Println("  H1.SI   :", history.H1SI())
	fmt.Println("  maps to :", sv)
	fmt.Println("  serializable:", deps.Serializable(sv))
	return nil
}
