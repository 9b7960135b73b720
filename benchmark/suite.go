package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricValue is one reported number. Reps holds the per-repetition
// values an end-to-end median was taken from; -compare reads their spread.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

type workloadReport struct {
	Name          string                 `json:"name"`
	Why           string                 `json:"why"`
	TxnsPerRep    int                    `json:"txns_per_rep"`
	TxnsAttempted int                    `json:"txns_attempted"`
	TxnsFailed    int                    `json:"txns_failed"`
	Violations    []string               `json:"violations"`
	EndToEnd      map[string]metricValue `json:"end_to_end"`
	PerLayer      map[string]metricValue `json:"per_layer"`
	Trace         *traceSummary          `json:"trace,omitempty"`

	layer map[string]float64 // traced-pass values, before units are attached
	hung  bool
}

// environment is recorded with every result: numbers from different hosts
// or Go versions do not compare.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
}

type suiteReport struct {
	Env       environment            `json:"env"`
	Seconds   float64                `json:"wall_seconds"`
	Workloads []*workloadReport      `json:"workloads"`
	Probes    map[string]metricValue `json:"probes"`
}

func newEnvironment(seed int64, quick bool) environment {
	return environment{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Seed: seed, Quick: quick}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func newWorkloadReport(w workload, div int) *workloadReport {
	return &workloadReport{Name: w.Name, Why: w.Why, TxnsPerRep: w.txns / div, Violations: []string{},
		EndToEnd: map[string]metricValue{}, layer: map[string]float64{}}
}

func (wr *workloadReport) count(res repResult) {
	wr.TxnsAttempted += res.attempted
	wr.TxnsFailed += res.failed
	wr.Violations = append(wr.Violations, res.violations...)
	wr.hung = wr.hung || res.hung
}

// addRep folds one untraced repetition into the end-to-end medians.
func (wr *workloadReport) addRep(res repResult) {
	wr.count(res)
	values := map[string]float64{
		"commit_tps": res.tps, "txn_p50_us": res.p50us, "txn_p99_us": res.p99us,
		"allocs_per_txn": res.allocsPerTxn, "heap_end_mb": res.heapMB, "setup_s": res.setup.Seconds(),
	}
	for _, d := range endToEnd {
		mv := wr.EndToEnd[d.Name]
		mv.Unit = d.Unit
		mv.Reps = append(mv.Reps, values[d.Name])
		mv.Value = median(mv.Reps)
		wr.EndToEnd[d.Name] = mv
	}
}

func scaled(w workload, div int) workload {
	w.txns /= div
	return w
}

// untracedRep runs repetition rep (0-based) of w at 1/div of its count.
func (wr *workloadReport) untracedRep(w workload, seed int64, rep, div int) repResult {
	res := runRep(repConfig{workload: scaled(w, div), seed: seed + int64(rep), clients: numClients})
	wr.addRep(res)
	fmt.Fprintf(os.Stderr, "%-26s rep %d: %8.0f txn/s  p50 %8.1f us  p99 %9.1f us  %6.1f allocs/txn  %6.1f MiB  setup %.3f s  retries %d  failed %d\n",
		w.Name, rep+1, res.tps, res.p50us, res.p99us, res.allocsPerTxn, res.heapMB, res.setup.Seconds(), res.retries, res.failed)
	return res
}

// tracedPass produces w's workload-dependent per-layer metrics: one
// untraced and one traced repetition at the same reduced count (their
// throughput ratio is the tracing overhead), spans written to
// <outDir>/trace-<workload>.jsonl.
func (wr *workloadReport) tracedPass(w workload, seed int64, div int, outDir string) {
	cfg := repConfig{workload: scaled(w, div*tracedDivisor), seed: seed, clients: numClients}
	plain := runRep(cfg)
	wr.count(plain)
	cfg.traced = true
	traced := runRep(cfg)
	wr.count(traced)
	if traced.layer == nil {
		return // hung or failed in set-up; the violation is already recorded
	}
	if plain.tps > 0 {
		traced.layer["obs.trace_overhead_ratio"] = traced.tps / plain.tps
	}
	wr.layer = traced.layer
	wr.Trace = traced.trace
	wr.Trace.File = filepath.Join(outDir, "trace-"+w.Name+".jsonl")
	if err := writeTrace(wr.Trace.File, traced.spans); err != nil {
		wr.Violations = append(wr.Violations, "trace: "+err.Error())
	}
	fmt.Fprintf(os.Stderr, "%-26s traced: %d spans, self times account for %.1f %% of %.2f s of transactions, overhead ratio %.2f\n",
		w.Name, wr.Trace.Spans, 100*wr.Trace.AccountedShare, wr.Trace.TxnSeconds, traced.layer["obs.trace_overhead_ratio"])
}

// layerValues attaches units to the per-layer metrics that include
// selects, zero where the workload does not exercise the layer, so every
// run reports the same set.
func layerValues(values map[string]float64, include func(name string) bool) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range perLayer {
		if include(d.Name) {
			out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
		}
	}
	return out
}

// runSuite is the full benchmark: five repetitions of all seven workloads
// round-robin (so drift on the host spreads over every workload), then the
// traced pass and the probes.
func runSuite(seed int64, quick bool, outDir string) (*suiteReport, bool) {
	start := time.Now()
	reps, div := suiteReps, 1
	if quick {
		reps, div = 1, quickDivisor
	}
	rep := &suiteReport{Env: newEnvironment(seed, quick)}
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, newWorkloadReport(w, div))
	}
	ok := true
	finish := func() (*suiteReport, bool) {
		for _, wr := range rep.Workloads {
			ok = ok && len(wr.Violations) == 0
		}
		rep.Seconds = time.Since(start).Seconds()
		return rep, ok
	}
	for r := 0; r < reps; r++ {
		for i, w := range workloads {
			rep.Workloads[i].untracedRep(w, seed, r, div)
			if rep.Workloads[i].hung {
				return finish()
			}
		}
	}
	for i, w := range workloads {
		rep.Workloads[i].tracedPass(w, seed, div, outDir)
		if rep.Workloads[i].hung {
			return finish()
		}
	}
	probes, err := probeMetrics(seed, div)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		ok = false
	}
	isProbe := func(name string) bool { _, ok := probes[name]; return ok }
	rep.Probes = layerValues(probes, isProbe) // workload-independent: reported once
	for _, wr := range rep.Workloads {
		wr.PerLayer = layerValues(wr.layer, func(name string) bool { return !isProbe(name) })
	}
	return finish()
}

// contractResult is the one-line result of a -workload run.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload measures one workload. Untraced, it repeats fixed-count
// repetitions (at least minReps) until their measured phases add up to
// the requested seconds and reports the end-to-end medians; traced, it
// runs the traced pass and the probes and reports every per-layer metric.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) contractResult {
	wr := newWorkloadReport(w, 1)
	var metrics map[string]metricValue
	ok := true
	if traced {
		wr.tracedPass(w, seed, 1, outDir)
		probes, err := probeMetrics(seed, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
		for name, v := range probes {
			wr.layer[name] = v
		}
		metrics = layerValues(wr.layer, func(string) bool { return true })
	} else {
		for r, measured := 0, 0.0; r < minReps || measured < seconds; r++ {
			res := wr.untracedRep(w, seed, r, 1)
			if res.hung || res.commits == 0 {
				break // more repetitions will not help
			}
			measured += res.elapsed.Seconds()
		}
		metrics = map[string]metricValue{}
		for name, mv := range wr.EndToEnd {
			metrics[name] = metricValue{Value: mv.Value, Unit: mv.Unit}
		}
	}
	for _, v := range wr.Violations {
		fmt.Fprintln(os.Stderr, "benchmark: violation:", v)
	}
	return contractResult{Correct: ok && len(wr.Violations) == 0, Attempted: wr.TxnsAttempted, Failed: wr.TxnsFailed, Metrics: metrics}
}
