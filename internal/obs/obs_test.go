package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose inclusive bound is >= the
	// value, and bucket bounds must be strictly increasing.
	vals := []int64{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 100, 1000, 4095, 4096, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		i := bucketOf(v)
		if b := bucketBound(i); b < v {
			t.Errorf("bucketBound(bucketOf(%d)) = %d < value", v, b)
		}
		if i > 0 && bucketBound(i-1) >= v {
			t.Errorf("value %d should not fit in bucket %d (bound %d)", v, i-1, bucketBound(i-1))
		}
	}
	for i := 1; i < histBuckets; i++ {
		if bucketBound(i) <= bucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d", i, bucketBound(i), bucketBound(i-1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum=%d", s.Sum)
	}
	// Bucketed quantiles are upper bounds with <= 1/8 relative error.
	if p := s.P50(); p < 50 || p > 57 {
		t.Errorf("p50=%d, want in [50,57]", p)
	}
	if p := s.P99(); p < 99 || p > 100 {
		t.Errorf("p99=%d, want in [99,100]", p)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("quantile(1)=%d, want exactly max", q)
	}
	var empty HistSnapshot
	if empty.P50() != 0 || empty.Quantile(1) != 0 {
		t.Errorf("empty snapshot quantiles must be 0")
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while
// snapshots are taken mid-flight, then checks the merged quiescent
// totals exactly. Run under -race this is also the data-race proof.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const writers = 8
	const perWriter = 10000
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	// Mid-flight snapshots: must be race-free and internally consistent
	// (Count == sum of bucket counts by construction).
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = h.Snapshot()
		}
	}()
	var wg sync.WaitGroup
	var want int64
	var wantMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local int64
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				h.Record(v)
				local += v
			}
			wantMu.Lock()
			want += local
			wantMu.Unlock()
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count=%d, want %d", s.Count, writers*perWriter)
	}
	if s.Sum != want {
		t.Fatalf("sum=%d, want %d", s.Sum, want)
	}
	if s.Max != int64(writers*perWriter-1) {
		t.Fatalf("max=%d, want %d", s.Max, writers*perWriter-1)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for v := int64(0); v < 1000; v++ {
		a.Record(v)
		b.Record(v * 3)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != sa.Count+sb.Count {
		t.Fatalf("merged count=%d", merged.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged sum=%d", merged.Sum)
	}
	if merged.Max != sb.Max {
		t.Fatalf("merged max=%d, want %d", merged.Max, sb.Max)
	}
	if merged.Quantile(1) != sb.Max {
		t.Fatalf("merged q1=%d", merged.Quantile(1))
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Add(Event{Tick: int64(i), Kind: EvCommit, Tx: i, Stripe: -1})
	}
	if r.Total() != 10 {
		t.Fatalf("total=%d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events", len(evs))
	}
	// Oldest-first record order must survive wraparound.
	for i, e := range evs {
		if want := int64(7 + i); e.Tick != want {
			t.Fatalf("event %d tick=%d, want %d", i, e.Tick, want)
		}
	}
	tail := r.Tail(2)
	if len(tail) != 2 || tail[0].Tick != 9 || tail[1].Tick != 10 {
		t.Fatalf("tail=%v", tail)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add(Event{Kind: EvGrant, Tx: w, Stripe: -1})
				_ = r.Events()
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Fatalf("total=%d", r.Total())
	}
}

func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	start := s.Now()
	s.Begin(1, "RR")
	s.Wait(ClassItem, 1, "x", 0, 2)
	s.Granted(ClassItem, 1, "x", 0, start)
	s.Upgrade(1, "x", 0)
	s.GCSweep(0, 3)
	s.Commit(1)
	s.Abort(1)
	s.Deadlock(1, []int{1, 2, 1})
	s.RecordOp(start)
	s.RecordCommitLatency(start)
	s.RecordGateHold(start)
	s.RecordRangeMuHold(start)
	s.RecordScan(start)
	if s.Histograms() != nil || s.DeadlockDump(1, nil, 4) != "" {
		t.Fatal("nil sink must be inert")
	}
	var h *Histogram
	h.Record(5) // nil histogram no-op
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot must be empty")
	}
}

func TestVirtualClockDeterminism(t *testing.T) {
	run := func() []string {
		s := NewSink(NewVirtualClock()).WithFlight(8)
		s.Begin(1, "SER")
		st := s.Now()
		s.Wait(ClassRange, 2, "k3", 1, 1)
		s.Granted(ClassRange, 2, "k3", 1, st)
		s.Commit(1)
		return s.Flight.TailStrings(8)
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("virtual-clock runs diverge:\n%v\n%v", a, b)
	}
}

func TestDeadlockDump(t *testing.T) {
	s := NewSink(NewVirtualClock()).WithFlight(32)
	s.Begin(1, "RR")
	s.Begin(2, "RR")
	s.Begin(3, "RR") // bystander: must not appear in the dump
	s.Wait(ClassItem, 1, "a", 0, 2)
	s.Wait(ClassItem, 2, "b", 1, 1)
	var got string
	s.OnDeadlock(func(d string) { got = d })
	s.Deadlock(2, []int{2, 1, 2})
	if got == "" {
		t.Fatal("OnDeadlock not invoked")
	}
	for _, want := range []string{"victim T2", "T2 -> T1 -> T2", "T1 wait item key=a stripe=0 on=T2", "T2 deadlock"} {
		if !strings.Contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "T3") {
		t.Errorf("dump includes bystander T3:\n%s", got)
	}
}

func TestWriteMetrics(t *testing.T) {
	s := NewSink(NewVirtualClock())
	for i := int64(1); i <= 10; i++ {
		s.Op.Record(i)
	}
	var b strings.Builder
	WriteMetrics(&b, s, map[string]int64{"lock_grants": 42, "lock_deadlocks": 1})
	WriteGauges(&b, map[string]int64{"mv_watermark_lag": 0, "mv_horizon_lag": 9})
	out := b.String()
	for _, want := range []string{
		"# TYPE isolevel_mv_horizon_lag gauge\nisolevel_mv_horizon_lag 9\n# TYPE isolevel_mv_watermark_lag gauge\nisolevel_mv_watermark_lag 0\n",
		"# TYPE isolevel_op_latency summary",
		`isolevel_op_latency{quantile="0.99"}`,
		"isolevel_op_latency_count 10",
		"isolevel_op_latency_sum 55",
		"# TYPE isolevel_lock_grants_total counter",
		"isolevel_lock_grants_total 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	// Counters must render in sorted order for byte-stable pages.
	if strings.Index(out, "lock_deadlocks_total") > strings.Index(out, "lock_grants_total") {
		t.Error("counters not sorted")
	}
}

// The summaries a metrics page exports are exactly the sink's histograms,
// in display order: a histogram no engine records has no place here.
func TestWriteMetricsHistogramNames(t *testing.T) {
	var b strings.Builder
	WriteMetrics(&b, NewSink(NewVirtualClock()), nil)
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if name, ok := strings.CutSuffix(strings.TrimPrefix(line, "# TYPE isolevel_"), " summary"); ok {
			got = append(got, name)
		}
	}
	want := []string{"op_latency", "commit_latency", "lock_wait", "range_wait", "gate_hold", "rangemu_hold", "store_scan"}
	if !slices.Equal(got, want) {
		t.Errorf("exported histograms %v, want %v", got, want)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Tick: 3, Kind: EvBegin, Tx: 1, Stripe: -1, Level: "RR"}, "[3] T1 begin level=RR"},
		{Event{Tick: 4, Kind: EvWait, Tx: 2, Key: "x", Stripe: 5, Class: ClassGap, Aux: 7}, "[4] T2 wait gap key=x stripe=5 on=T7"},
		{Event{Tick: 9, Kind: EvGCSweep, Stripe: 2, Aux: 12}, "[9] T0 gc-sweep stripe=2 reclaimed=12"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
	if fmt.Sprint(EvDeadlock) != "deadlock" {
		t.Error("EventKind.String")
	}
}
