package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// hashConn hashes every statement its client sends, in wire form.
type hashConn struct {
	conn
	h hash.Hash64
}

func (c *hashConn) Begin() (int, error)         { fmt.Fprintln(c.h, "BEGIN"); return c.conn.Begin() }
func (c *hashConn) Get(k string) (int64, error) { fmt.Fprintln(c.h, "GET", k); return c.conn.Get(k) }
func (c *hashConn) Set(k string, v int64) error {
	fmt.Fprintln(c.h, "SET", k, v)
	return c.conn.Set(k, v)
}
func (c *hashConn) Del(k string) error { fmt.Fprintln(c.h, "DEL", k); return c.conn.Del(k) }
func (c *hashConn) Scan(l, h string) ([]kv, error) {
	fmt.Fprintln(c.h, "SCAN", l, h)
	return c.conn.Scan(l, h)
}
func (c *hashConn) Commit() error { fmt.Fprintln(c.h, "COMMIT"); return c.conn.Commit() }

// streamHash plays a one-client repetition (so the interleaving, and with
// it every value read, is fixed) and returns the hash of its statements.
func streamHash(t *testing.T, traffic, attach string, seed int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	res := runRep(repConfig{
		workload: workload{traffic: traffic, family: "keyrange", attach: attach, txns: 300},
		seed:     seed, clients: 1,
		wrap: func(c conn) conn { return &hashConn{conn: c, h: h} },
	})
	if len(res.violations) > 0 || res.failed > 0 {
		t.Fatalf("%s at %s: %d failed, violations %v", traffic, attach, res.failed, res.violations)
	}
	return h.Sum64()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, traffic := range []string{trafficTransfer, trafficHot, trafficScanmove} {
		embed := streamHash(t, traffic, attachEmbed, 7)
		if again := streamHash(t, traffic, attachEmbed, 7); again != embed {
			t.Errorf("%s: same seed gave statement stream hashes %x and %x", traffic, embed, again)
		}
		for _, attach := range []string{attachSession, attachWire} {
			if got := streamHash(t, traffic, attach, 7); got != embed {
				t.Errorf("%s: stream hash %x at %s differs from %x at embed", traffic, got, attach, embed)
			}
		}
		if other := streamHash(t, traffic, attachEmbed, 8); other == embed {
			t.Errorf("%s: seeds 7 and 8 gave the same statement stream", traffic)
		}
	}
}

// lossyConn acknowledges its nth SET without performing it: a lost update.
type lossyConn struct {
	conn
	sets, drop int
}

func (c *lossyConn) Set(k string, v int64) error {
	if c.sets++; c.sets == c.drop {
		return nil
	}
	return c.conn.Set(k, v)
}

func TestOracleCatchesLostUpdate(t *testing.T) {
	for _, tc := range []struct{ traffic, want string }{
		{trafficTransfer, "balances sum to"},
		{trafficScanmove, "rows summing to"},
	} {
		res := runRep(repConfig{
			workload: workload{traffic: tc.traffic, family: "keyrange", attach: attachEmbed, txns: 200},
			seed:     1, clients: 1,
			wrap: func(c conn) conn { return &lossyConn{conn: c, drop: 100} },
		})
		if !strings.Contains(strings.Join(res.violations, "\n"), tc.want) {
			t.Errorf("%s: a dropped SET went unnoticed; violations: %v", tc.traffic, res.violations)
		}
	}
}

func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads for a few seconds")
	}
	out := t.TempDir()
	rep, ok := runSuite(1, true, out)
	if !ok {
		t.Error("quick suite reported a failure")
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(workloads))
	}
	layers := len(rep.Probes)
	for _, wr := range rep.Workloads {
		if len(wr.Violations) > 0 || wr.TxnsFailed > 0 {
			t.Errorf("%s: %d of %d transactions failed, violations %v", wr.Name, wr.TxnsFailed, wr.TxnsAttempted, wr.Violations)
		}
		for _, d := range endToEnd {
			if v := wr.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %v %q", wr.Name, d.Name, v.Value, v.Unit)
			}
		}
		if len(rep.Probes)+len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d probe + %d workload layer metrics, want %d in all", wr.Name, layers, len(wr.PerLayer), len(perLayer))
		}
		if wr.Trace == nil || wr.Trace.AccountedShare < 0.9 || wr.Trace.AccountedShare > 1.1 {
			t.Errorf("%s: self times do not account for the transaction time: %+v", wr.Name, wr.Trace)
		} else if st, err := os.Stat(wr.Trace.File); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file: %v", wr.Name, err)
		}
	}
	// The interaction table: which layer carries which workload.
	layer := func(name, metric string) float64 {
		for _, wr := range rep.Workloads {
			if wr.Name == name {
				return wr.PerLayer[metric].Value
			}
		}
		return 0
	}
	for _, c := range []struct {
		workload, metric string
		positive         bool
	}{
		{"wire_transfer_keyrange", "server.wire_us_per_stmt", true},
		{"embed_transfer_keyrange", "server.wire_us_per_stmt", false},
		{"embed_scanmove_keyrange", "lock.range_grants_per_txn", true},
		{"embed_scanmove_keyrange", "lock.gate_acquires_per_txn", false},
		{"embed_scanmove_predicate", "lock.gate_acquires_per_txn", true},
		{"embed_scanmove_mv", "engine.select_us", true},
		{"embed_transfer_mv", "mvcc.commit_path_us", true},
		{"wire_hot_keyrange", "lock.waits_per_txn", true},
	} {
		if v := layer(c.workload, c.metric); (v > 0) != c.positive {
			t.Errorf("%s: %s = %v", c.workload, c.metric, v)
		}
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(decl.Command, want) {
		t.Errorf("command = %v, want %v", decl.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(decl.Paths, want) {
		t.Errorf("paths = %v, want %v", decl.Paths, want)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared as %q (%q), the program has %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	check := func(kind string, declared []metric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%d %s metrics declared, the program has %d", len(declared), kind, len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d declared as %+v, the program has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || bounded && *m.Bound != d.Bound {
				t.Errorf("%s metric %s: bound %v, the program has %v", kind, d.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}

func TestQuartileSpread(t *testing.T) {
	// Expected values from Python's statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		{[]float64{5, 1, 4, 2, 3}, (4.5 - 1.5) / 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 11, 12, 13, 20}, (16.5 - 10.5) / 12},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(tc.values); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	suite := func(tps, p50 []float64) *suiteReport {
		wr := &workloadReport{Name: "w", EndToEnd: map[string]metricValue{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricValue{Value: 1, Unit: d.Unit, Reps: []float64{1, 1, 1, 1, 1}}
		}
		wr.EndToEnd["commit_tps"] = metricValue{Value: median(tps), Reps: tps}
		wr.EndToEnd["txn_p50_us"] = metricValue{Value: median(p50), Reps: p50}
		return &suiteReport{Workloads: []*workloadReport{wr}}
	}
	dir := t.TempDir()
	write := func(name string, rep *suiteReport) string {
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 100, 99, 100}
	a := write("a.json", suite(steady, steady))
	// Throughput drops 40 % on steady repetitions: regressed. The p50
	// median does not move but its repetitions spread 45 %: unresolved.
	b := write("b.json", suite([]float64{60, 61, 60, 59, 60}, []float64{70, 85, 100, 115, 130}))

	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 40 % throughput drop was not reported as a regression")
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "w" {
			verdicts[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{"commit_tps": "regressed", "txn_p50_us": "unresolved", "txn_p99_us": "unchanged",
		"allocs_per_txn": "unchanged", "heap_end_mb": "unchanged", "setup_s": "unchanged"}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("verdicts = %v, want %v\n%s", verdicts, want, out.String())
	}
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("a file compared with itself: regressed=%v err=%v", regressed, err)
	}
}
