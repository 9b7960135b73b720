package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"isolevel/internal/obs"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoint(t *testing.T) {
	sink := obs.NewSink(obs.NewVirtualClock())
	sink.Op.Record(5)
	srv := httptest.NewServer(Handler(Source{
		Sink:     sink,
		Counters: func() map[string]int64 { return map[string]int64{"lock_grants": 7} },
		Gauges:   func() map[string]int64 { return map[string]int64{"mv_horizon_lag": 3} },
	}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"isolevel_op_latency_count 1", "isolevel_lock_grants_total 7",
		"# TYPE isolevel_mv_horizon_lag gauge\nisolevel_mv_horizon_lag 3\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, body = get(t, srv, "/debug/vars")
	var vars struct {
		Memstats map[string]any   `json:"memstats"`
		Isolevel map[string]int64 `json:"isolevel"`
	}
	if err := json.Unmarshal([]byte(body), &vars); code != http.StatusOK || err != nil || vars.Memstats == nil {
		t.Errorf("/debug/vars status %d, decode error %v:\n%s", code, err, body)
	}
	if vars.Isolevel["lock_grants"] != 7 || vars.Isolevel["mv_horizon_lag"] != 3 {
		t.Errorf("/debug/vars isolevel = %v, want the source's counters and gauges", vars.Isolevel)
	}
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

func TestMetricsNilSource(t *testing.T) {
	srv := httptest.NewServer(Handler(Source{}))
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if strings.Contains(body, "isolevel_") {
		t.Errorf("nil source should render an empty page, got:\n%s", body)
	}
	if code, body := get(t, srv, "/debug/vars"); code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars with a nil source: status %d, body\n%s", code, body)
	}
}

// TestServeCloseLifecycle: Serve returns a closeable handle — scrapes work
// while it is up, Close drains and stops accepting, and a second Close is
// an idempotent no-op returning the first result.
func TestServeCloseLifecycle(t *testing.T) {
	stmt := new(obs.Histogram)
	stmt.Record(42)
	ep, err := Serve("127.0.0.1:0", Source{
		Counters: func() map[string]int64 { return map[string]int64{"server_commits": 3} },
		Hists:    func() []obs.NamedHist { return []obs.NamedHist{{Name: "server_stmt_latency", H: stmt}} },
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	url := "http://" + ep.Addr().String() + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for _, want := range []string{"isolevel_server_commits_total 3", "isolevel_server_stmt_latency_count 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Error("GET after Close succeeded, want connection error")
	}
}
