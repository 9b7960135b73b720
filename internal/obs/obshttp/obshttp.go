// Package obshttp serves the runtime observability endpoint: /metrics in
// Prometheus text format fed from histogram + engine counter and gauge
// snapshots, net/http/pprof under /debug/pprof/, and expvar — plus the
// same counters and gauges as one "isolevel" object — under /debug/vars.
// It is stdlib-only and lives outside the deterministic set (net/http and
// pprof are free to read the wall clock).
package obshttp

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"isolevel/internal/obs"
)

// Source supplies the data behind /metrics. Sink may be nil (no
// histograms); Counters may be nil (no counters); Gauges may be nil (no
// gauges); Hists may be nil (no extra histograms). Counters, Gauges and
// Hists are called per scrape so the page tracks live state, and nothing
// is computed between scrapes — Hists carries histograms that live outside
// a Sink, like the server's statement-latency histogram.
type Source struct {
	Sink     *obs.Sink
	Counters func() map[string]int64
	Gauges   func() map[string]int64
	Hists    func() []obs.NamedHist
}

// flat calls f if there is one.
func flat(f func() map[string]int64) map[string]int64 {
	if f == nil {
		return nil
	}
	return f()
}

// Handler returns the endpoint's mux: /metrics, /debug/pprof/*,
// /debug/vars.
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var extra []obs.NamedHist
		if src.Hists != nil {
			extra = src.Hists()
		}
		obs.WriteMetrics(w, src.Sink, flat(src.Counters), extra...)
		obs.WriteGauges(w, flat(src.Gauges))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		// expvar.Handler's page with one more member: the source's counters
		// and gauges under their /metrics names.
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) { fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value) })
		values := map[string]int64{}
		for _, m := range []map[string]int64{flat(src.Counters), flat(src.Gauges)} {
			for name, v := range m {
				values[name] = v
			}
		}
		enc, err := json.Marshal(values)
		if err != nil {
			enc = []byte("{}") // a map of integers always encodes
		}
		fmt.Fprintf(w, "%q: %s\n}\n", "isolevel", enc)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "isolevel observability endpoint\n/metrics\n/debug/pprof/\n/debug/vars\n")
	})
	return mux
}

// Endpoint is a live observability endpoint: an http.Server serving
// Handler(src) on its own goroutine, with a graceful shutdown path.
type Endpoint struct {
	ln   net.Listener
	srv  *http.Server
	done chan error // the serve goroutine's exit error, exactly one send

	closeOnce sync.Once
	closeErr  error
}

// Serve listens on addr and serves Handler(src) on a background
// goroutine until Close. The returned Endpoint reports the bound
// address (so callers can print the actual port when addr ends in ":0")
// and owns the shutdown path; callers must Close it when the command
// finishes.
func Serve(addr string, src Source) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep := &Endpoint{
		ln:   ln,
		srv:  &http.Server{Handler: Handler(src)},
		done: make(chan error, 1),
	}
	go func() { ep.done <- ep.srv.Serve(ln) }()
	return ep, nil
}

// Addr returns the endpoint's bound address.
func (e *Endpoint) Addr() net.Addr { return e.ln.Addr() }

// Close gracefully shuts the endpoint down: the listener stops
// accepting, in-flight scrapes drain (bounded by a short timeout,
// after which remaining connections are closed), and any error the
// serve goroutine died with before shutdown is surfaced. Idempotent:
// later calls return the first call's result.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutErr := e.srv.Shutdown(ctx)
		serveErr := <-e.done
		if errors.Is(serveErr, http.ErrServerClosed) {
			serveErr = nil
		}
		e.closeErr = serveErr
		if e.closeErr == nil {
			e.closeErr = shutErr
		}
	})
	return e.closeErr
}
