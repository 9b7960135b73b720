// Package server is the network front-end: a connection-per-session TCP
// server speaking the session package's line protocol over any
// engine.DB. Each accepted connection gets its own goroutine and
// session, preserving the engine's one-transaction-per-goroutine
// contract; a dropped connection's open transaction is aborted on
// teardown.
//
// One protection mechanism bounds the traffic tier: admission control.
// At most MaxSessions connections are admitted at once; excess
// connections are greeted with "-BUSY ..." and closed — the admission
// decision is serialized, so shed counts are exact. A session runs one
// statement at a time, so statements in flight never exceed admitted
// sessions; there is no separate statement gate, because a statement
// blocked on a lock would hold its gate slot and queue the lock's holder
// behind its own waiters, a wait the deadlock detector cannot see. A
// statement line is at most the reader's 4 KiB buffer: a longer one gets
// "-ERR statement too long" and the connection is closed.
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
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"isolevel/internal/engine"
	"isolevel/internal/obs"
	"isolevel/internal/session"
)

// DefaultMaxSessions is the admission limit for a zero Config.MaxSessions.
const DefaultMaxSessions = 1024

// Config configures a Server. DB is required; a zero MaxSessions takes
// DefaultMaxSessions.
type Config struct {
	DB           engine.DB
	DefaultLevel engine.Level // level for sessions that never SET/BEGIN one
	Family       string       // engine family name, echoed in the greeting
	MaxSessions  int          // admitted connections at once
}

// Server serves the wire protocol over a Config's engine.
type Server struct {
	cfg Config

	stats       session.Stats
	stmtLatency obs.Histogram

	accepted     atomic.Int64
	shedSessions atomic.Int64

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
	return &Server{cfg: cfg, conns: map[net.Conn]struct{}{}}
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
		// ReadSlice bounds a statement line by the reader's buffer; a
		// line that ends without a newline (EOF mid-line) never runs.
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			bw.WriteString("-ERR statement too long\r\n")
			_ = bw.Flush() // the connection closes either way
			return
		}
		if err != nil {
			return
		}
		raw = bytes.TrimRight(raw, "\r\n")
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		start := time.Now()
		reply, quit := sess.Exec(string(raw))
		s.stmtLatency.Record(int64(time.Since(start)))
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
