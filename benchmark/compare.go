package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4): the spread the benchmark's bounds are
// judged against.
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

func readSuite(path string) (*suiteReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareFiles prints one row per end-to-end metric x workload of two
// suite outputs (a the baseline, b the candidate) and reports whether any
// row regressed. A row is unresolved when either input's own repetitions
// spread wider than the bound: the medians then cannot tell a change of
// that size from noise.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	if a.Env != b.Env {
		fmt.Fprintf(out, "note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	byName := map[string]*workloadReport{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tbound\tspread a\tspread b\tverdict\t")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			return false, fmt.Errorf("%s: workload %s is missing", pathB, wa.Name)
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma.Value == 0 {
				return false, fmt.Errorf("%s: %s %s is missing or zero", pathA, wa.Name, d.Name)
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(ma.Reps), quartileSpread(mb.Reps)
			verdict := "unchanged"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f %%\t%.0f %%\t%.1f %%\t%.1f %%\t%s\t\n",
				wa.Name, d.Name, d.Unit, ma.Value, mb.Value, 100*worse, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return regressed, tw.Flush()
}
