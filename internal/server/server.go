// Package server is the long-lived network front end over a core.DB: a
// line-based TCP protocol with per-connection sessions, explicit or
// autocommit transactions, and a graceful shutdown that drains in-flight
// commits. Concurrency is where the engine's group commit earns its keep:
// every connection that commits at the same instant coalesces onto one
// unordered device sync and one status-table append (internal/txn), and one
// batch's sync runs while the batch before it writes its status page, so
// committed-transactions/sec scales with client count instead of
// serializing behind per-transaction fsyncs.
//
// The store is heap relation "kv" under primary index "kv_pk", a B-link
// tree built with one of the paper's crash-recovery techniques (see
// Options.Variant), never the unprotected one: restart is just New.
//
// The protocol (one request per line, space-separated; keys are single
// tokens, a PUT value is the remainder of the line):
//
//	BEGIN              -> OK <xid>
//	PUT <key> <value>  -> OK            (autocommits when outside BEGIN)
//	MPUT <k> <v> [<k> <v> ...] -> OK <n>  (n pairs written through the
//	                      batched index path; values are single tokens
//	                      here, autocommits when outside BEGIN)
//	GET <key>          -> OK <value> | NOTFOUND
//	DEL <key>          -> OK | NOTFOUND (autocommits when outside BEGIN)
//	SCAN <lo> <hi> [n] -> ROW <key> <value> ... then OK <count>  ("-" = open bound)
//	COMMIT             -> OK <xid> | ERR retry <why>
//	ABORT              -> OK <xid>
//	STATS              -> OK <one-line JSON>
//	QUIT               -> OK bye, then the server closes the connection
//
// Errors are "ERR <code> <message>"; code "retry" marks a commit that was
// aborted by a device failure and is safe to re-run as a new transaction.
// Reads see committed data only (the §2 status-table visibility rule), so
// a session's own writes become readable at COMMIT.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// Options configures a Server.
type Options struct {
	// Variant is the crash-recovery technique of the primary index:
	// Shadow (§3.3), Reorg (§3.4) or Hybrid. The zero value, which is
	// Normal, means Shadow: the unprotected B-link tree is the Table 1
	// baseline and is never served.
	Variant core.Variant
	// DrainTimeout bounds how long Close waits for in-flight sessions to
	// finish their current command (default 5s).
	DrainTimeout time.Duration
}

// Server serves the KV protocol over a core.DB.
type Server struct {
	db *core.DB // for BEGIN and STATS; the store itself is kv's
	kv *KV

	drainTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a server over db, opening (creating as needed) its backing
// relation and index.
func New(db *core.DB, opts Options) (*Server, error) {
	if opts.Variant == core.Normal {
		opts.Variant = core.Shadow
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	rel, err := db.CreateRelation("kv")
	if err != nil {
		return nil, err
	}
	idx, err := db.CreateIndex("kv_pk", opts.Variant)
	if err != nil {
		return nil, err
	}
	return &Server{
		db:           db,
		kv:           &KV{db: db, rel: rel, idx: idx},
		drainTimeout: opts.DrainTimeout,
		conns:        make(map[net.Conn]struct{}),
		quit:         make(chan struct{}),
	}, nil
}

// KV returns the store the server serves, for callers that drive its
// semantics without the wire.
func (s *Server) KV() *KV { return s.kv }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting sessions in
// the background. The bound address is available via Addr.
func (s *Server) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: closed")
	}
	s.listener = l
	// Counted under mu: a Close that takes mu next must find the accept loop
	// in the count it waits for, never a zero it may already be waiting on.
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.acceptLoop(l)
	}()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			newSession(s, conn).run()
		}()
	}
}

// draining reports whether Close has begun.
func (s *Server) draining() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// Close gracefully shuts the server down: stop accepting, let every
// session finish the command it is executing (in-flight commits drain
// through the group-commit coordinator), then close the connections. The
// DB itself is not closed — the caller owns it. Returns an error if the
// drain timed out and sessions had to be cut.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()

	close(s.quit)
	if l != nil {
		l.Close()
	}
	// Unblock sessions parked in Read waiting for the next command; a
	// session mid-command keeps running until the command completes.
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(s.drainTimeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain timed out after %v; connections cut", s.drainTimeout)
	}
}
