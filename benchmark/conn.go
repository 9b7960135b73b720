package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"isolevel/internal/data"
	"isolevel/internal/engine"
	"isolevel/internal/session"
)

// Attach points: where the client's statements enter the system.
const (
	attachEmbed   = "embed"   // engine.DB called directly
	attachSession = "session" // session.Session.Exec in-process (layer-budget probe only)
	attachWire    = "wire"    // in-process server on 127.0.0.1:0, one TCP connection per client
)

// conn is one client's connection to the system under test: the same six
// statements at every attach point, so one generated stream is playable
// against the bare engine, the session and the TCP server. Tests
// substitute fakes behind it.
type conn interface {
	// Begin opens a transaction at the workload's level and returns the
	// engine-assigned transaction id (the T<id> of the wire reply).
	Begin() (int, error)
	Get(key string) (int64, error)
	Set(key string, val int64) error
	Del(key string) error
	Scan(lo, hi string) ([]kv, error)
	Commit() error
	Close()
}

type kv struct {
	key string
	val int64
}

// retryError reports that the scheduler aborted the transaction and
// already rolled it back: the client reruns it from Begin.
type retryError struct{ kind string }

func (e *retryError) Error() string { return "retry: " + e.kind }

const (
	retryDeadlock      = "DEADLOCK"
	retryWriteConflict = "WRITECONFLICT"
	retryRowChanged    = "ROWCHANGED"
)

var errMissingRow = errors.New("row not found")

// embedConn drives engine.DB and engine.Tx directly.
type embedConn struct {
	db    engine.DB
	level engine.Level
	tx    engine.Tx
}

// fail honours the engine contract (any error but ErrNotFound leaves the
// transaction abort-only) and classifies the error the way session does.
func (c *embedConn) fail(err error) error {
	_ = c.tx.Abort() // ErrTxDone when the scheduler already terminated it
	c.tx = nil
	switch {
	case errors.Is(err, engine.ErrDeadlock):
		return &retryError{retryDeadlock}
	case errors.Is(err, engine.ErrWriteConflict):
		return &retryError{retryWriteConflict}
	case errors.Is(err, engine.ErrRowChanged):
		return &retryError{retryRowChanged}
	}
	return err
}

func (c *embedConn) Begin() (int, error) {
	tx, err := c.db.Begin(c.level)
	if err != nil {
		return 0, err
	}
	c.tx = tx
	return tx.ID(), nil
}

func (c *embedConn) Get(key string) (int64, error) {
	v, err := engine.GetVal(c.tx, data.Key(key))
	if err != nil {
		return 0, c.fail(err)
	}
	return v, nil
}

func (c *embedConn) Set(key string, val int64) error {
	if err := engine.PutVal(c.tx, data.Key(key), val); err != nil {
		return c.fail(err)
	}
	return nil
}

func (c *embedConn) Del(key string) error {
	if err := c.tx.Delete(data.Key(key)); err != nil {
		return c.fail(err)
	}
	return nil
}

func (c *embedConn) Scan(lo, hi string) ([]kv, error) {
	tuples, err := engine.SelectRange(c.tx, data.Key(lo), data.Key(hi))
	if err != nil {
		return nil, c.fail(err)
	}
	rows := make([]kv, len(tuples))
	for i, t := range tuples {
		rows[i] = kv{string(t.Key), t.Row.Val()}
	}
	return rows, nil
}

func (c *embedConn) Commit() error {
	if err := c.tx.Commit(); err != nil {
		return c.fail(err)
	}
	c.tx = nil
	return nil
}

func (c *embedConn) Close() {
	if c.tx != nil {
		_ = c.tx.Abort()
		c.tx = nil
	}
}

// lineConn speaks the session line protocol. exec sends one statement and
// returns the whole reply in session.Exec's form: lines joined by "\r\n",
// no trailing terminator.
type lineConn struct {
	exec  func(line string) (string, error)
	close func()
}

// newSessionConn executes statements on an in-process session.
func newSessionConn(db engine.DB, level engine.Level) *lineConn {
	s := session.New(db, level, nil)
	return &lineConn{
		exec:  func(line string) (string, error) { r, _ := s.Exec(line); return r, nil },
		close: s.Close,
	}
}

// dialWire connects to a server and consumes its greeting. deadline bounds
// every later read and write, so a stalled server cannot hang the run.
func dialWire(addr string, deadline time.Time) (*lineConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := nc.SetDeadline(deadline); err != nil {
		nc.Close()
		return nil, err
	}
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	readLine := func() (string, error) {
		line, err := br.ReadString('\n')
		return strings.TrimRight(line, "\r\n"), err
	}
	if hello, err := readLine(); err != nil || !strings.HasPrefix(hello, "+HELLO") {
		nc.Close()
		return nil, fmt.Errorf("greeting %q: %v", hello, err)
	}
	exec := func(line string) (string, error) {
		bw.WriteString(line)
		bw.WriteString("\r\n")
		if err := bw.Flush(); err != nil {
			return "", err
		}
		head, err := readLine()
		if err != nil || !strings.HasPrefix(head, "*") {
			return head, err
		}
		n, err := strconv.Atoi(head[1:])
		if err != nil {
			return "", fmt.Errorf("malformed array header %q", head)
		}
		var b strings.Builder
		b.WriteString(head)
		for i := 0; i < n; i++ {
			row, err := readLine()
			if err != nil {
				return "", err
			}
			b.WriteString("\r\n")
			b.WriteString(row)
		}
		return b.String(), nil
	}
	return &lineConn{exec: exec, close: func() { nc.Close() }}, nil
}

// do runs one statement and maps error replies: -RETRY is the retry
// contract; -ERR, -BUSY and anything unparsable are protocol failures the
// oracle counts as violations.
func (c *lineConn) do(line string) (string, error) {
	reply, err := c.exec(line)
	if err != nil {
		return "", fmt.Errorf("%s: %w", line, err)
	}
	if strings.HasPrefix(reply, "-RETRY ") {
		kind, _, _ := strings.Cut(reply[len("-RETRY "):], " ")
		return "", &retryError{kind}
	}
	if reply == "" || reply[0] == '-' {
		return "", fmt.Errorf("%s: reply %q", line, reply)
	}
	return reply, nil
}

// expect runs a statement whose only good reply is want.
func (c *lineConn) expect(line, want string) error {
	reply, err := c.do(line)
	if err != nil {
		return err
	}
	if reply == "$-1" {
		return fmt.Errorf("%s: %w", line, errMissingRow)
	}
	if reply != want {
		return fmt.Errorf("%s: malformed reply %q", line, reply)
	}
	return nil
}

func (c *lineConn) Begin() (int, error) {
	// Plain BEGIN: the session's default level is the workload's level,
	// exactly as isolevel serve configures it.
	reply, err := c.do("BEGIN")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(reply) // +OK T<id> <code>
	if len(f) != 3 || f[0] != "+OK" || !strings.HasPrefix(f[1], "T") {
		return 0, fmt.Errorf("BEGIN: malformed reply %q", reply)
	}
	id, err := strconv.Atoi(f[1][1:])
	if err != nil {
		return 0, fmt.Errorf("BEGIN: malformed reply %q", reply)
	}
	return id, nil
}

func (c *lineConn) Get(key string) (int64, error) {
	reply, err := c.do("GET " + key)
	if err != nil {
		return 0, err
	}
	if reply == "$-1" {
		return 0, fmt.Errorf("GET %s: %w", key, errMissingRow)
	}
	if reply[0] != ':' {
		return 0, fmt.Errorf("GET %s: malformed reply %q", key, reply)
	}
	v, err := strconv.ParseInt(reply[1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("GET %s: malformed reply %q", key, reply)
	}
	return v, nil
}

func (c *lineConn) Set(key string, val int64) error {
	return c.expect("SET "+key+" "+strconv.FormatInt(val, 10), "+OK")
}

func (c *lineConn) Del(key string) error { return c.expect("DEL "+key, "+OK") }

func (c *lineConn) Scan(lo, hi string) ([]kv, error) {
	reply, err := c.do("SCAN " + lo + " " + hi)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(reply, "\r\n")
	n, err := strconv.Atoi(strings.TrimPrefix(lines[0], "*"))
	if err != nil || lines[0][0] != '*' || n != len(lines)-1 {
		return nil, fmt.Errorf("SCAN: malformed reply header %q", lines[0])
	}
	rows := make([]kv, n)
	for i, l := range lines[1:] {
		key, val, ok := strings.Cut(strings.TrimPrefix(l, "+"), " ")
		v, err := strconv.ParseInt(val, 10, 64)
		if !ok || err != nil || l[0] != '+' {
			return nil, fmt.Errorf("SCAN: malformed row %q", l)
		}
		rows[i] = kv{key, v}
	}
	return rows, nil
}

func (c *lineConn) Commit() error { return c.expect("COMMIT", "+OK") }

func (c *lineConn) Close() { c.close() }
