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
//	isolevel serve -family keyrange -addr 127.0.0.1:7401
//	                           serve the wire protocol over one engine
//	isolevel load -addr 127.0.0.1:7401 -clients 8 -levels SER,SI
//	                           drive a running server with generated traffic
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"isolevel/internal/anomalies"
	"isolevel/internal/ansi"
	"isolevel/internal/deps"
	"isolevel/internal/engine"
	"isolevel/internal/exerciser"
	"isolevel/internal/history"
	"isolevel/internal/lock"
	"isolevel/internal/matrix"
	"isolevel/internal/mvcc"
	"isolevel/internal/obs/obshttp"
	"isolevel/internal/phenomena"
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
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
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
  fuzz -seed S -n N           differential isolation fuzzing: generated
        schedules replayed on every engine family x level, traces checked
        against the Table 4 oracle; findings are shrunk to minimal
        histories in the paper's notation
        -mixed: per-transaction level assignments — every transaction at
        its own sampled level (all six locking degrees in one lock
        manager; SI + RC interleaved on the mv engine), judged by
        the per-transaction oracle (a phenomenon is a violation only when
        charged to a transaction whose own level forbids it)
        knobs: -txs -items -ops -abort -mix r:W,w:W,p:W,rc:W,wc:W,i:W,d:W,s:W
               -engines locking,keyrange,mv (an unknown name is an error)
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
               -max-sessions N (admission control, the one bound:
                excess sessions are greeted -BUSY and closed; a
                statement line over 4 KiB gets -ERR and a close)
               -preload N (warm acct:NNNNNN rows for load runs)
               -http ADDR (live /metrics with server counters and the
                statement-latency histogram)
  load -addr A                drive a running server: closed loop
        (-clients N -txns T) or open loop (-rate R arrivals/sec), hot-key
        skew (-keys -hot-keys -hot-bias), op mix (-ops -read-frac
        -scan-frac -del-frac), mixed levels (-levels SER,SI,RC sampled per
        transaction), retry loop (-retries), seeded (-seed); reports
        commits/retries/shed and p50/p90/p99 latency
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
		checkOne(os.Stdout, h, assign)
		return nil
	case *file != "":
		return checkFile(os.Stdout, *file)
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
func checkFile(w io.Writer, path string) error {
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
			fmt.Fprintf(w, "== history %d: PARSE ERROR: %v\n\n", n+1, err)
			n++
			continue
		}
		fmt.Fprintf(w, "== history %d ==\n", n+1)
		checkOne(w, h, assign)
		fmt.Fprintln(w)
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

// checkOne classifies a single history: phenomena with their
// participating pairs (one Stream pass), serializability, and Table 3
// admission. With a per-transaction level assignment it additionally runs
// the per-transaction oracle: every witnessed phenomenon is charged to its
// victim, and only the charges a victim's own level forbids are
// violations.
func checkOne(w io.Writer, h history.History, assign *exerciser.Assign) {
	fmt.Fprintln(w, "history:", h)
	if assign != nil {
		fmt.Fprintln(w, "levels: ", assign.Annotation())
	}
	fmt.Fprintln(w)
	s := phenomena.NewStream()
	for _, op := range h {
		s.Feed(op)
	}
	attr := s.Pairs()
	var ids []string
	for id := range attr {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if len(ids) == 0 {
		fmt.Fprintln(w, "phenomena: none")
	} else {
		fmt.Fprintln(w, "phenomena:")
		for _, id := range ids {
			for _, p := range s.PairsOf(phenomena.ID(id)) {
				fmt.Fprintf(w, "  %-4s %-18s %s\n", id, phenomena.Name(phenomena.ID(id)), p)
			}
		}
	}
	if assign != nil {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-transaction oracle:")
		charges := exerciser.NewOracle().Charges(attr, assign.Level)
		if len(charges) == 0 {
			if len(ids) == 0 {
				fmt.Fprintln(w, "  no phenomena witnessed")
			} else {
				fmt.Fprintln(w, "  no violation: every witnessed phenomenon is charged to a transaction whose level allows it (or excused by a below-degree-1 writer)")
			}
		} else {
			for _, c := range charges {
				fmt.Fprintf(w, "  VIOLATION: %s charged to T%d (%s), against T%d (%s)\n",
					c.ID, c.Victim, assign.Level(c.Victim), c.Other, assign.Level(c.Other))
			}
		}
	}
	fmt.Fprintln(w)
	if g := deps.BuildGraph(h); g.Cycle() == nil {
		fmt.Fprintln(w, "conflict-serializable: yes; equivalent serial order:", fmtOrder(g.TopoOrder()))
	} else {
		fmt.Fprintln(w, "conflict-serializable: NO; dependency cycle:", fmtOrder(g.Cycle()))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "admitted by (phenomenon-based levels, Table 3):")
	for _, lvl := range ansi.Table3 {
		verdict := "admitted"
		if v := lvl.FirstViolation(h); v != "" {
			verdict = "rejected (" + string(v) + ")"
		}
		fmt.Fprintf(w, "  %-18s %s\n", lvl.Name, verdict)
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

// lockCounters flattens a lock-based engine's Stats into the counter map
// behind /metrics (empty for engines without a lock manager). Keys are the
// metric names; the /metrics writer sorts them.
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

// engineGauges is mvGauges plus, for an engine with a lock manager,
// live_fragments: the key-range fragments held right now (a value that
// only grows is a leaked range lock).
func engineGauges(db engine.DB) map[string]int64 {
	m := mvGauges(db)
	if ls, ok := db.(interface{ LockStats() lock.Stats }); ok {
		if m == nil {
			m = map[string]int64{}
		}
		m["live_fragments"] = ls.LockStats().LiveFragments
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
	engines := fs.String("engines", "", "comma list of engine families (default all: locking,keyrange,mv)")
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
