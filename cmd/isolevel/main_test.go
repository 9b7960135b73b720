package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"isolevel/internal/engine"
	"isolevel/internal/locking"
	"isolevel/internal/mvcc"
	"isolevel/internal/workload"
)

// volatileNums masks every digit run: wall-clock durations, throughput,
// latency quantiles and timing-dependent wait counts all vary run to run,
// while the report's structure — line order, label order within the
// map-keyed stats lines, which sections appear — must not.
var volatileNums = regexp.MustCompile(`[0-9]+`)

func maskBench(s string) string { return volatileNums.ReplaceAllString(s, "N") }

// TestBenchTextByteStable runs the same bench twice and diffs the masked
// text: the map-keyed stats lines render through the shared name-sorted
// renderer (report.CountersLine), so two runs of the same configuration
// must produce the same lines in the same order.
func TestBenchTextByteStable(t *testing.T) {
	args := []string{"-scenario", "hotspot-lockstep", "-level", "READ COMMITTED", "-workers", "4", "-rounds", "10", "-obs"}
	var a, b bytes.Buffer
	if err := runBench(&a, args); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := runBench(&b, args); err != nil {
		t.Fatalf("second run: %v", err)
	}
	am, bm := maskBench(a.String()), maskBench(b.String())
	if am != bm {
		t.Errorf("bench text not byte-stable after masking numbers:\n--- first ---\n%s\n--- second ---\n%s", am, bm)
	}
	for _, want := range []string{"lock stats:", "latency histograms (ns):"} {
		if !strings.Contains(am, want) {
			t.Errorf("bench output missing %q:\n%s", want, am)
		}
	}
	// The shared renderer sorts counter names; spot-check the lock stats
	// line really is name-ordered.
	for _, line := range strings.Split(a.String(), "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "lock stats: ")
		if !ok {
			continue
		}
		var names []string
		for _, kv := range strings.Fields(rest) {
			names = append(names, strings.SplitN(kv, "=", 2)[0])
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("lock stats names not sorted: %q before %q in %q", names[i-1], names[i], rest)
			}
		}
	}
}

// TestUpgradeStormFlightDump forces deadlocks (the S->X upgrade storm) with
// the flight recorder attached and asserts the dump names the victim, the
// waits-for cycle, and the participants' recent events.
func TestUpgradeStormFlightDump(t *testing.T) {
	args := []string{"-scenario", "upgrade-storm", "-level", "REPEATABLE READ", "-workers", "4", "-rounds", "10", "-flight", "128"}
	var out bytes.Buffer
	if err := runBench(&out, args); err != nil {
		t.Fatalf("runBench: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"first deadlock flight dump:",
		"deadlock: victim T",
		"waits-for cycle: T",
		"last 8 events per participant:",
		" upgrade key=storm:",
		" wait item key=storm:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("flight dump missing %q in:\n%s", want, text)
		}
	}
	// The cycle line must close: "T_a -> ... -> T_a".
	cyc := regexp.MustCompile(`waits-for cycle: (T[0-9]+) -> (?:T[0-9]+ -> )*(T[0-9]+)`)
	m := cyc.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no waits-for cycle line in:\n%s", text)
	}
	if m[1] != m[2] {
		t.Errorf("cycle does not close: starts %s, ends %s", m[1], m[2])
	}
}

// The live_fragments gauge on /metrics follows a keyrange engine's range
// locks: nonzero while a SERIALIZABLE scan holds its fragments, zero once
// it commits. A multiversion engine keeps its mv_* gauges beside it.
func TestEngineGaugesCountLiveFragments(t *testing.T) {
	db := locking.NewDB(locking.WithPhantomProtection(locking.PhantomKeyrange))
	workload.LoadAccounts(db, 8, 100)
	if n := engineGauges(db)["live_fragments"]; n != 0 {
		t.Fatalf("idle engine: live_fragments = %d, want 0", n)
	}
	tx, err := db.Begin(engine.Serializable)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SelectRange(tx, workload.AccountKey(0), workload.AccountKey(4)); err != nil {
		t.Fatal(err)
	}
	if n := engineGauges(db)["live_fragments"]; n == 0 {
		t.Error("scan open: live_fragments = 0, want its fragments counted")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := engineGauges(db)["live_fragments"]; n != 0 {
		t.Errorf("scan committed: live_fragments = %d, want 0", n)
	}
	g := engineGauges(mvcc.NewDB())
	if _, ok := g["mv_horizon_lag"]; !ok {
		t.Errorf("multiversion engine gauges %v lack mv_horizon_lag", g)
	}
}
