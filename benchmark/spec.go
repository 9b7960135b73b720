package main

import "time"

// Traffic shapes. transfer moves money between two accounts; hot is
// transfer with most picks drawn from a tiny hot set; scanmove moves one
// row inside a group under a range read.
const (
	trafficTransfer = "transfer"
	trafficHot      = "hot"
	trafficScanmove = "scanmove"
)

// Table and traffic sizes. They are constants, not flags: heap and
// allocation counts compare across commits only at fixed sizes.
const (
	numClients = 2 // closed loop; 2 = nproc on the recording host

	accounts     = 10000 // acct:NNNNNN
	startBalance = 1000
	hotAccounts  = 8
	hotProb      = 0.9
	maxTransfer  = 10 // d in [1, maxTransfer]

	groups      = 64 // grp:GGGG:SSS
	slots       = 64
	slotValue   = 100
	rowsPerGrp  = slots / 2 // even slots are preloaded
	groupSum    = rowsPerGrp * slotValue
	scanRows    = groups * rowsPerGrp
	warmupShare = 10 // warm-up is 1/warmupShare of the measured count

	suiteReps     = 5                // repetitions per workload in the full suite
	minReps       = 3                // -workload mode: at least this many, then until -seconds
	tracedDivisor = 4                // the traced pass runs 1/4 of the count: spans stay in memory
	quickDivisor  = 10               // -quick
	repDeadline   = 30 * time.Second // per repetition; the rest counts as failed
)

// Retry policy: retry at once; from the 9th consecutive retry yield the
// processor before BEGIN; from the 100th sleep instead; give up, and count the
// transaction as failed, after 1000.
//
// With a 50-retry budget and no yield, embed_transfer_mv abandoned 68-155
// of 300k transactions per run and that share varied 2x from run to run:
// mvcc.Commit returns before Oracle.Safe() passes its timestamp (ROADMAP),
// so while the other client sits between Oracle.Next and Oracle.Done every
// snapshot this client takes predates its own recent commits, and a
// transaction that rewrites one of those keys fails first-committer-wins
// on every retry. Yielding lets the other install run and brings failures
// down to 0-1 per 180k. The last one happens when the other goroutine is
// off its processor for longer than 1000 spins last (a garbage-collection
// assist, or the kernel), so late retries sleep: a workload on
// which a transaction fails now and then cannot back a later claim. The
// wasted work stays visible in client.retries_per_txn.
const (
	maxRetries = 1000
	yieldAfter = 9
	sleepAfter = 100
	retrySleep = 100 * time.Microsecond
)

// workload is one row of the benchmark: traffic x engine family x attach
// point, at a fixed transaction count per repetition.
type workload struct {
	Name    string
	Why     string
	traffic string
	family  string // keyrange | predicate | mv, built as cmd/isolevel serveDB builds them
	attach  string // embed | wire (session is reachable only from the layer-budget probe)
	txns    int
}

var workloads = []workload{
	{"wire_transfer_keyrange", "What isolevel serve users see: uniform transfers over TCP; server and session do most of the work, the engine about 15 %.",
		trafficTransfer, "keyrange", attachWire, 36000},
	{"embed_transfer_keyrange", "The same statements with the wire removed: locking, the lock item path and sv do all the work, so an item-path or allocation gain shows here.",
		trafficTransfer, "keyrange", attachEmbed, 180000},
	{"embed_transfer_mv", "mvcc, mv.Store and mv.Oracle commit path: the write-heavy use of mv and the only row where heap_end_mb grows with commits.",
		trafficTransfer, "mv", attachEmbed, 180000},
	{"embed_scanmove_keyrange", "The lock range and gap path plus sv.Select: inserts into gaps and deletes under a range read; item-path work is small.",
		trafficScanmove, "keyrange", attachEmbed, 10000},
	{"embed_scanmove_predicate", "The same statements through the predicate table and gate; with the keyrange row it decides which phantom protocol ships.",
		trafficScanmove, "predicate", attachEmbed, 12000},
	{"embed_scanmove_mv", "The read-heavy use of mv (SelectAt): a scan index that taxes Install must show as a loss on embed_transfer_mv.",
		trafficScanmove, "mv", attachEmbed, 1500},
	{"wire_hot_keyrange", "Locks held across round trips on 8 hot keys: waits, upgrade deadlocks, drain/grant and abort/retry dominate the same item path.",
		trafficHot, "keyrange", attachWire, 30000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step. Bound is the share of the baseline median by which the metric may
// worsen before it counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The three timing bounds are as wide as BENCHMARK.json allows. Sets of
// ten runs per workload on the 2-core recording host spread (quartile
// distance over median) up to 13 % on commit_tps, 9 % on txn_p50_us and
// 17 % on txn_p99_us, and drift by up to 10 % between sets: the embed rows
// saturate both cores, so anything else the host does shows, and the p99
// of the contended rows sits where the retried tail begins. A tighter
// bound would reject innocent changes. Counts and heap repeat to well
// under 1 %.
var endToEnd = []metricDef{
	{"commit_tps", "txn/s", "higher", 0.25},
	{"txn_p50_us", "us", "lower", 0.25},
	{"txn_p99_us", "us", "lower", 0.25},
	{"allocs_per_txn", "count", "lower", 0.02},
	{"heap_end_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists every traced-pass metric. probeMetrics produces the
// workload-independent ones, tracedRep the rest.
var perLayer = []metricDef{
	{"server.wire_us_per_stmt", "us", "lower", 0},
	{"server.ping_roundtrip_us", "us", "lower", 0},
	{"session.self_us_per_stmt", "us", "lower", 0},
	{"session.exec_overhead_ns", "ns", "lower", 0},
	{"locking.us_per_txn", "us", "lower", 0},
	{"session.us_per_txn", "us", "lower", 0},
	{"server.us_per_txn", "us", "lower", 0},
	{"engine.begin_us", "us", "lower", 0},
	{"engine.get_us", "us", "lower", 0},
	{"engine.put_us", "us", "lower", 0},
	{"engine.del_us", "us", "lower", 0},
	{"engine.select_us", "us", "lower", 0},
	{"engine.commit_us", "us", "lower", 0},
	{"engine.abort_us", "us", "lower", 0},
	{"engine.busy_share", "ratio", "lower", 0},
	{"lock.item_xlock_ns", "ns", "lower", 0},
	{"lock.range_install_us", "us", "lower", 0},
	{"lock.pred_install_us", "us", "lower", 0},
	{"lock.grants_per_txn", "count", "lower", 0},
	{"lock.waits_per_txn", "count", "lower", 0},
	{"lock.deadlocks_per_txn", "count", "lower", 0},
	{"lock.range_grants_per_txn", "count", "lower", 0},
	{"lock.gap_grants_per_txn", "count", "lower", 0},
	{"lock.pred_grants_per_txn", "count", "lower", 0},
	{"lock.gate_acquires_per_txn", "count", "lower", 0},
	{"lock.wait_share", "ratio", "lower", 0},
	{"sv.put_ns", "ns", "lower", 0},
	{"sv.select_range_us", "us", "lower", 0},
	{"sv.scan_us", "us", "lower", 0},
	{"mv.read_at_ns", "ns", "lower", 0},
	{"mv.install_ns", "ns", "lower", 0},
	{"mv.select_range_us", "us", "lower", 0},
	{"mv.oracle_next_done_ns", "ns", "lower", 0},
	{"mvcc.commit_path_us", "us", "lower", 0},
	{"mvcc.fcw_aborts_per_txn", "count", "lower", 0},
	{"client.retries_per_txn", "count", "lower", 0},
	{"client.retry_wasted_share", "ratio", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
}
