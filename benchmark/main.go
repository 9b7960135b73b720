// Command benchmark is the repository's end-to-end benchmark and layer
// budget: one seeded traffic generator played against a fresh engine per
// repetition through two measured attach points (the bare engine.DB and
// the TCP server) and one traced-only attach point (the in-process
// session), over seven workloads, with the isolation invariants checked
// on every repetition. See README.md in this directory.
//
//	go run ./benchmark -seed N                        the full suite, as one JSON document
//	go run ./benchmark -seed N -quick                 one repetition at a tenth of the counts
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                                  one workload; the last line is the result
//	go run ./benchmark -compare a.json b.json         verdict per metric x workload
//
// Like loadgen, this package measures wall-clock behaviour and lives
// outside the //isolint:deterministic set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// traceDir is where the traced pass writes its spans, relative to the
// repository root the benchmark is run from.
const traceDir = "benchmark/out"

func main() {
	name := flag.String("workload", "", "run only this workload and print the one-line result (default: the full suite)")
	seed := flag.Int64("seed", 1, "generator seed; repetition r uses seed+r, client i adds 7919*i")
	seconds := flag.Float64("seconds", 10, "with -workload: repeat until the measured phases add up to this long")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
	quick := flag.Bool("quick", false, "suite only: one repetition at a tenth of the counts")
	compare := flag.Bool("compare", false, "compare two suite outputs: -compare a.json b.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case flag.NArg() != 0:
		fatal("unexpected arguments: ", flag.Args())
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload ", *name)
		}
		if *trace != 0 && *trace != 1 || *seconds <= 0 {
			fatal("-trace is 0 or 1 and -seconds is positive")
		}
		res := runWorkload(w, *seed, *seconds, *trace == 1, traceDir)
		printJSON(res, "")
		if !res.Correct {
			os.Exit(1)
		}
	default:
		rep, ok := runSuite(*seed, *quick, traceDir)
		printJSON(rep, "  ")
		if !ok {
			os.Exit(1)
		}
	}
}

func printJSON(v any, indent string) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchmark:"}, args...)...)
	os.Exit(2)
}
