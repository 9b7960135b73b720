package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/predicate"
)

// Tracing is done from the benchmark's own files, around the calls into
// each layer: a tracedConn times the client's statements, a timedDB times
// the engine calls the session (or the client, at embed) makes. Spans of
// one transaction attempt share the engine transaction id, which the
// client learns from the BEGIN reply. Everything stays in memory until
// the repetition ends.

const (
	layerClient = "client"
	layerEngine = "engine"
)

type span struct {
	layer    string
	name     string // client: txn, BEGIN, GET, SET, DEL, SCAN, COMMIT; engine: begin, get, put, del, select, commit, abort
	txn      int    // engine transaction id; for a client txn span, the committing attempt's
	client   int    // client spans only
	attempts int    // client txn spans only
	start    int64  // ns since the repetition's clock origin
	end      int64
}

// tracedConn records one client span per statement into its client's
// buffer. Only the owning client goroutine touches it.
type tracedConn struct {
	conn
	client int
	base   time.Time
	spans  *[]span
	txn    int // current attempt's engine transaction id
}

func (c *tracedConn) record(name string, start time.Time) {
	*c.spans = append(*c.spans, span{layer: layerClient, name: name, txn: c.txn, client: c.client,
		start: int64(start.Sub(c.base)), end: int64(time.Since(c.base))})
}

func (c *tracedConn) Begin() (int, error) {
	start := time.Now()
	id, err := c.conn.Begin()
	c.txn = id
	c.record("BEGIN", start)
	return id, err
}

func (c *tracedConn) Get(key string) (int64, error) {
	defer c.record("GET", time.Now())
	return c.conn.Get(key)
}

func (c *tracedConn) Set(key string, val int64) error {
	defer c.record("SET", time.Now())
	return c.conn.Set(key, val)
}

func (c *tracedConn) Del(key string) error {
	defer c.record("DEL", time.Now())
	return c.conn.Del(key)
}

func (c *tracedConn) Scan(lo, hi string) ([]kv, error) {
	defer c.record("SCAN", time.Now())
	return c.conn.Scan(lo, hi)
}

func (c *tracedConn) Commit() error {
	defer c.record("COMMIT", time.Now())
	return c.conn.Commit()
}

// engineTrace collects engine spans from every goroutine that runs a
// transaction: client goroutines at embed, server handlers at wire.
type engineTrace struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *engineTrace) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// timedDB decorates an engine.DB so every Begin and every call on the
// transactions it returns leaves a span.
type timedDB struct {
	engine.DB
	trace *engineTrace
}

func (d *timedDB) Begin(level engine.Level) (engine.Tx, error) {
	start := time.Since(d.trace.base)
	tx, err := d.DB.Begin(level)
	if err != nil {
		return nil, err
	}
	t := &timedTx{Tx: tx, trace: d.trace}
	t.spans = append(t.buf[:0], span{layer: layerEngine, name: "begin", txn: tx.ID(),
		start: int64(start), end: int64(time.Since(d.trace.base))})
	return t, nil
}

// timedTx buffers its spans and hands them to the shared trace once, when
// the transaction ends, so tracing adds one mutex acquisition per
// transaction, not per call.
type timedTx struct {
	engine.Tx
	trace *engineTrace
	spans []span
	buf   [8]span
}

func (t *timedTx) record(name string, start time.Duration) {
	t.spans = append(t.spans, span{layer: layerEngine, name: name, txn: t.Tx.ID(),
		start: int64(start), end: int64(time.Since(t.trace.base))})
}

func (t *timedTx) flush() {
	t.trace.mu.Lock()
	t.trace.spans = append(t.trace.spans, t.spans...)
	t.trace.mu.Unlock()
	t.spans = t.spans[:0]
}

func (t *timedTx) Get(key data.Key) (data.Row, error) {
	start := time.Since(t.trace.base)
	row, err := t.Tx.Get(key)
	t.record("get", start)
	return row, err
}

func (t *timedTx) Put(key data.Key, row data.Row) error {
	start := time.Since(t.trace.base)
	err := t.Tx.Put(key, row)
	t.record("put", start)
	return err
}

func (t *timedTx) Delete(key data.Key) error {
	start := time.Since(t.trace.base)
	err := t.Tx.Delete(key)
	t.record("del", start)
	return err
}

func (t *timedTx) Select(p predicate.P) ([]data.Tuple, error) {
	start := time.Since(t.trace.base)
	rows, err := t.Tx.Select(p)
	t.record("select", start)
	return rows, err
}

func (t *timedTx) Commit() error {
	start := time.Since(t.trace.base)
	err := t.Tx.Commit()
	t.record("commit", start)
	t.flush()
	return err
}

func (t *timedTx) Abort() error {
	start := time.Since(t.trace.base)
	err := t.Tx.Abort()
	t.record("abort", start)
	t.flush()
	return err
}

// writeTrace writes spans as JSON lines, one span per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var line []byte
	for _, s := range spans {
		line = append(line[:0], `{"layer":"`...)
		line = append(line, s.layer...)
		line = append(line, `","name":"`...)
		line = append(line, s.name...)
		line = append(line, `","txn":`...)
		line = strconv.AppendInt(line, int64(s.txn), 10)
		if s.layer == layerClient {
			line = append(line, `,"client":`...)
			line = strconv.AppendInt(line, int64(s.client), 10)
		}
		if s.attempts > 0 {
			line = append(line, `,"attempts":`...)
			line = strconv.AppendInt(line, int64(s.attempts), 10)
		}
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
