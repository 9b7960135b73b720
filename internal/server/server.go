// Package server is the network front-end: a connection-per-session TCP
// server speaking the session package's line protocol over any
// engine.DB. Each accepted connection gets its own goroutine and
// session, preserving the engine's one-transaction-per-goroutine
// contract; a dropped connection's open transaction is aborted on
// teardown.
//
// Two protection mechanisms bound the traffic tier:
//
//   - Admission control: at most MaxSessions connections are admitted at
//     once. Excess connections are greeted with "-BUSY ..." and closed —
//     the admission decision is serialized, so shed counts are exact.
//   - Backpressure: at most MaxInflight statements execute concurrently;
//     up to MaxQueued more may wait for a slot, and statements beyond
//     that are shed with "-BUSY ..." instead of growing an unbounded
//     queue.
//
// The server keeps a statement-latency histogram (internal/obs) and a
// counter set shaped for obshttp's /metrics page.
//
// This package deliberately lives outside the //isolint:deterministic
// set: it serves real sockets at wall-clock pace, unlike the fuzzer's
// scripted schedules.
package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"isolevel/internal/engine"
	"isolevel/internal/obs"
	"isolevel/internal/obs/wallclock"
	"isolevel/internal/session"
)

// Defaults for Config's zero values.
const (
	DefaultMaxSessions = 1024
	DefaultMaxInflight = 256
	DefaultMaxQueued   = 1024
)

// Config configures a Server. DB is required; zero limits take the
// package defaults.
type Config struct {
	DB           engine.DB
	DefaultLevel engine.Level // level for sessions that never SET/BEGIN one
	Family       string       // engine family name, echoed in the greeting
	MaxSessions  int          // admitted connections at once
	MaxInflight  int          // statements executing at once
	MaxQueued    int          // statements waiting for an inflight slot
	Clock        obs.Clock    // latency clock; nil = wall clock
}

// Server serves the wire protocol over a Config's engine.
type Server struct {
	cfg   Config
	clock obs.Clock
	gate  chan struct{} // inflight-statement slots

	stats       session.Stats
	stmtLatency obs.Histogram

	accepted     atomic.Int64
	shedSessions atomic.Int64
	shedStmts    atomic.Int64
	queued       atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// New returns an unstarted server. Drive it with Serve (accept loop) or
// ServeConn (one pre-established connection, e.g. a net.Pipe in tests).
func New(cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = DefaultMaxQueued
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallclock.New()
	}
	return &Server{
		cfg:   cfg,
		clock: clock,
		gate:  make(chan struct{}, cfg.MaxInflight),
		conns: map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on ln until Close. Each admitted connection
// runs on its own goroutine; connections beyond MaxSessions are greeted
// with -BUSY and closed. Returns nil after Close, or the first
// unexpected Accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.admit(conn) {
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ServeConn admits and serves one pre-established connection, blocking
// until the peer quits or the connection drops. Admission control
// applies exactly as in Serve.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.admit(conn) {
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	s.handle(conn)
}

// admit decides, under the connection lock, whether conn gets a session.
// Rejected connections see one "-BUSY ..." line and are closed; admitted
// ones see the "+HELLO ..." greeting.
func (s *Server) admit(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed || len(s.conns) >= s.cfg.MaxSessions {
		closed := s.closed
		if !closed {
			s.shedSessions.Add(1)
		}
		s.mu.Unlock()
		if !closed {
			fmt.Fprintf(conn, "-BUSY server at max sessions (%d)\r\n", s.cfg.MaxSessions)
		}
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.accepted.Add(1)
	s.mu.Unlock()
	fmt.Fprintf(conn, "+HELLO isolevel family=%s level=%s\r\n", s.cfg.Family, s.cfg.DefaultLevel.Code())
	return true
}

// handle drives one admitted connection's session loop.
func (s *Server) handle(conn net.Conn) {
	sess := session.New(s.cfg.DB, s.cfg.DefaultLevel, &s.stats)
	defer func() {
		sess.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		// Backpressure applies to data statements only: COMMIT/ABORT and
		// the other control statements always run, because shedding the
		// statement that releases locks would wedge the very queue it is
		// waiting behind.
		var release func()
		if isDataStmt(line) {
			var ok bool
			if release, ok = s.acquireSlot(); !ok {
				s.shedStmts.Add(1)
				bw.WriteString("-BUSY statement shed (queue full)\r\n")
				if bw.Flush() != nil {
					return
				}
				continue
			}
		}
		start := s.clock.Now()
		reply, quit := sess.Exec(line)
		s.stmtLatency.Record(s.clock.Now() - start)
		if release != nil {
			release()
		}
		if reply != "" {
			bw.WriteString(reply)
			bw.WriteString("\r\n")
		}
		if bw.Flush() != nil {
			return
		}
		if quit {
			return
		}
	}
}

// isDataStmt reports whether line is a data statement (GET/SET/DEL/SCAN
// — the statements that do row work and may block on locks). SET
// TRANSACTION is a control statement. It reads the first two words in
// place, so classifying a statement allocates nothing.
func isDataStmt(line string) bool {
	verb, rest := nextWord(line)
	switch {
	case strings.EqualFold(verb, "GET"), strings.EqualFold(verb, "DEL"), strings.EqualFold(verb, "SCAN"):
		return true
	case strings.EqualFold(verb, "SET"):
		arg, _ := nextWord(rest)
		return !strings.EqualFold(arg, "TRANSACTION")
	}
	return false
}

// nextWord returns the first word of s and what follows it, splitting at
// unicode.IsSpace as strings.Fields does; word is "" when s is blank.
func nextWord(s string) (word, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// acquireSlot takes an inflight-statement slot, waiting in the bounded
// queue if none is free. ok == false means the queue is full and the
// statement must be shed.
func (s *Server) acquireSlot() (release func(), ok bool) {
	release = func() { <-s.gate }
	select {
	case s.gate <- struct{}{}:
		return release, true
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueued) {
		s.queued.Add(-1)
		return nil, false
	}
	s.gate <- struct{}{}
	s.queued.Add(-1)
	return release, true
}

// Close stops accepting, closes every live connection (their sessions
// abort any open transaction on teardown), and waits for the handlers
// to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Stats exposes the shared session statistics.
func (s *Server) Stats() *session.Stats { return &s.stats }

// SessionsShed returns the number of connections refused by admission
// control.
func (s *Server) SessionsShed() int64 { return s.shedSessions.Load() }

// StatementsShed returns the number of statements shed by backpressure.
func (s *Server) StatementsShed() int64 { return s.shedStmts.Load() }

// StatementsQueued returns the number of statements currently waiting
// for an inflight slot (tests poll this to order backpressure scenarios).
func (s *Server) StatementsQueued() int64 { return s.queued.Load() }

// Counters returns the server's counter set in the flat shape
// obshttp.Source.Counters expects.
func (s *Server) Counters() map[string]int64 {
	s.mu.Lock()
	active := int64(len(s.conns))
	s.mu.Unlock()
	return map[string]int64{
		"server_sessions_accepted": s.accepted.Load(),
		"server_sessions_active":   active,
		"server_sessions_shed":     s.shedSessions.Load(),
		"server_stmts":             s.stats.Statements.Load(),
		"server_stmts_shed":        s.shedStmts.Load(),
		"server_begins":            s.stats.Begins.Load(),
		"server_commits":           s.stats.Commits.Load(),
		"server_aborts":            s.stats.Aborts.Load(),
		"server_retryable_errors":  s.stats.Retryable.Load(),
		"server_errors":            s.stats.Errors.Load(),
	}
}

// Hists returns the server's histograms in the shape
// obshttp.Source.Hists expects.
func (s *Server) Hists() []obs.NamedHist {
	return []obs.NamedHist{{Name: "server_stmt_latency", H: &s.stmtLatency}}
}
