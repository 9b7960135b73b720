package obs

import (
	"fmt"
	"io"
	"sort"
)

// WriteMetrics renders the sink's histograms, any extra named histograms
// (server-side statement latency, load-generator latency), and an optional
// flat counter map in Prometheus text exposition format. Histograms come
// out as summaries (quantile-labelled gauges plus _sum/_count); counters
// as isolevel_<name>_total. Counter names are emitted in sorted order so
// the page is byte-stable for a given state.
//
// The value unit is the sink clock's unit: nanoseconds under the real
// clock, virtual ticks under VirtualClock. The endpoint is only wired
// up in serving paths (real clock), so scrapers see nanoseconds.
func WriteMetrics(w io.Writer, s *Sink, counters map[string]int64, extra ...NamedHist) {
	for _, nh := range append(s.Histograms(), extra...) {
		snap := nh.H.Snapshot()
		name := "isolevel_" + nh.Name
		fmt.Fprintf(w, "# HELP %s %s (clock units)\n", name, nh.Name)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		fmt.Fprintf(w, "%s{quantile=\"0.5\"} %d\n", name, snap.P50())
		fmt.Fprintf(w, "%s{quantile=\"0.9\"} %d\n", name, snap.P90())
		fmt.Fprintf(w, "%s{quantile=\"0.99\"} %d\n", name, snap.P99())
		fmt.Fprintf(w, "%s{quantile=\"1\"} %d\n", name, snap.Max)
		fmt.Fprintf(w, "%s_sum %d\n", name, snap.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
	}
	writeFlat(w, counters, "_total", "counter")
}

// WriteGauges renders a flat gauge map — values that go down as well as
// up, like how far the oldest open snapshot holds version GC back — as
// isolevel_<name> gauges, in sorted order like WriteMetrics' counters.
func WriteGauges(w io.Writer, gauges map[string]int64) {
	writeFlat(w, gauges, "", "gauge")
}

func writeFlat(w io.Writer, values map[string]int64, suffix, kind string) {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := "isolevel_" + name + suffix
		fmt.Fprintf(w, "# TYPE %s %s\n", full, kind)
		fmt.Fprintf(w, "%s %d\n", full, values[name])
	}
}
