package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/txn"
)

const (
	maxLine     = 1 << 20 // longest accepted request line
	defaultScan = 100     // SCAN row cap when the client gives none
	maxScan     = 100000
)

// session is one connection's state: at most one open transaction.
type session struct {
	srv *Server
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	tx  *core.Txn
	num [20]byte // okUint's digits
}

func newSession(s *Server, c net.Conn) *session {
	return &session{
		srv: s,
		c:   c,
		r:   bufio.NewReaderSize(c, 64<<10),
		w:   bufio.NewWriterSize(c, 64<<10),
	}
}

// run is the session loop: read a line, execute, reply, until the client
// quits, the connection drops, or the server drains.
func (ss *session) run() {
	defer func() {
		// A connection that drops mid-transaction aborts it — exactly a
		// client crash in the §2 model: nothing to undo, the tuples are
		// simply never committed.
		if ss.tx != nil {
			_ = ss.tx.Abort()
			ss.tx = nil
		}
	}()
	for {
		if ss.srv.draining() {
			ss.errorf("shutdown", "server is draining")
			ss.w.Flush()
			return
		}
		line, err := ss.readLine()
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				ss.errorf("usage", "line too long")
				ss.w.Flush()
				return
			}
			// A final unterminated line is served only on a clean EOF — the
			// client wrote it whole and closed. On any other error (read
			// deadline during drain, reset peer) the line may be a TRUNCATED
			// prefix of a command still in flight; executing it could
			// durably autocommit a corrupted write, so drop it and close.
			if !errors.Is(err, io.EOF) || len(line) == 0 {
				return
			}
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			continue
		}
		if !ss.dispatch(line) {
			ss.w.Flush()
			return
		}
		if err := ss.w.Flush(); err != nil {
			return
		}
	}
}

// errLineTooLong rejects a request line that exceeded maxLine before a
// newline arrived.
var errLineTooLong = errors.New("server: request line too long")

// readLine reads one newline-terminated request line, enforcing maxLine
// incrementally: the line is rejected as soon as the cap is crossed, never
// buffered whole first, so a client streaming an endless unterminated line
// cannot grow server memory past maxLine plus one bufio buffer.
func (ss *session) readLine() (string, error) {
	var buf []byte
	for {
		frag, err := ss.r.ReadSlice('\n')
		if len(buf)+len(frag) > maxLine {
			return "", errLineTooLong
		}
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue // long line spans bufio buffers; keep accumulating
		}
		return string(buf), err
	}
}

// dispatch executes one request line; false means close the session.
func (ss *session) dispatch(line string) bool {
	verb := line
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, rest = line[:i], line[i+1:]
	}
	switch strings.ToUpper(verb) {
	case "BEGIN":
		ss.cmdBegin()
	case "PUT":
		ss.cmdPut(rest)
	case "MPUT":
		ss.cmdMput(rest)
	case "GET":
		ss.cmdGet(rest)
	case "DEL":
		ss.cmdDel(rest)
	case "SCAN":
		ss.cmdScan(rest)
	case "COMMIT":
		ss.cmdCommit()
	case "ABORT":
		ss.cmdAbort()
	case "STATS":
		ss.cmdStats()
	case "QUIT":
		ss.w.WriteString("OK bye\n")
		return false
	default:
		ss.errorf("usage", "unknown verb %q", verb)
	}
	return true
}

// okValue replies "OK <v>".
func (ss *session) okValue(v []byte) {
	ss.w.WriteString("OK ")
	ss.w.Write(v)
	ss.w.WriteByte('\n')
}

// okUint replies "OK <n>".
func (ss *session) okUint(n uint64) {
	ss.okValue(strconv.AppendUint(ss.num[:0], n, 10))
}

// errorf replies "ERR <code> <message>", the message on one line whatever
// it holds: an error that joins several (errors.Join puts a newline between
// them) written over two lines would make every later reply on the
// connection answer the request before it. Every error reply comes here.
func (ss *session) errorf(code, format string, args ...any) {
	ss.w.WriteString("ERR ")
	ss.w.WriteString(code)
	ss.w.WriteByte(' ')
	ss.w.WriteString(lineBreaks.Replace(fmt.Sprintf(format, args...)))
	ss.w.WriteByte('\n')
}

// lineBreaks turns the line breaks in an error message into separators.
var lineBreaks = strings.NewReplacer("\r\n", "; ", "\n", "; ", "\r", " ")

// fail maps engine errors onto protocol error codes.
func (ss *session) fail(err error) {
	code := "server"
	switch {
	case errors.Is(err, txn.ErrCommitFailed):
		code = "retry"
	case errors.Is(err, core.ErrReadOnly):
		code = "readonly"
	case errors.Is(err, core.ErrFailed):
		code = "failed"
	case errors.Is(err, core.ErrQuarantined):
		code = "quarantined"
	}
	ss.errorf(code, "%v", err)
}

func (ss *session) cmdBegin() {
	if ss.tx != nil {
		ss.errorf("txn", "transaction %d already open", ss.tx.XID())
		return
	}
	ss.tx = ss.srv.db.Begin()
	ss.okUint(uint64(ss.tx.XID()))
}

func (ss *session) cmdCommit() {
	if ss.tx == nil {
		ss.errorf("notxn", "no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil // committed or aborted either way — never limbo
	if err := tx.Commit(); err != nil {
		ss.fail(err)
		return
	}
	ss.okUint(uint64(tx.XID()))
}

func (ss *session) cmdAbort() {
	if ss.tx == nil {
		ss.errorf("notxn", "no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil
	if err := tx.Abort(); err != nil {
		ss.fail(err)
		return
	}
	ss.okUint(uint64(tx.XID()))
}

func (ss *session) cmdPut(rest string) {
	i := strings.IndexByte(rest, ' ')
	if rest == "" || i <= 0 || i == len(rest)-1 {
		ss.errorf("usage", "PUT <key> <value>")
		return
	}
	key, value := []byte(rest[:i]), []byte(rest[i+1:])
	err := ss.srv.kv.WithTxn(ss.tx, func(tx *core.Txn) error { return ss.srv.kv.Put(tx, key, value) })
	if err != nil {
		ss.fail(err)
		return
	}
	ss.w.WriteString("OK\n")
}

// cmdMput writes several pairs in one round trip. Unlike PUT, values are
// single tokens (the line is split on spaces). All pairs go through one
// transaction and one batched index insert, so a big MPUT pays one descent
// per leaf run and — outside BEGIN — one commit sync, not one per pair.
func (ss *session) cmdMput(rest string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields)%2 != 0 {
		ss.errorf("usage", "MPUT <key> <value> [<key> <value> ...]")
		return
	}
	n := len(fields) / 2
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fields[2*i])
		values[i] = []byte(fields[2*i+1])
	}
	err := ss.srv.kv.WithTxn(ss.tx, func(tx *core.Txn) error { return ss.srv.kv.PutBatch(tx, keys, values) })
	if err != nil {
		ss.fail(err)
		return
	}
	ss.okUint(uint64(n))
}

func (ss *session) cmdGet(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.errorf("usage", "GET <key>")
		return
	}
	val, ok, err := ss.srv.kv.Get([]byte(rest))
	if err != nil {
		ss.fail(err)
		return
	}
	if !ok {
		ss.w.WriteString("NOTFOUND\n")
		return
	}
	ss.okValue(val)
}

func (ss *session) cmdDel(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.errorf("usage", "DEL <key>")
		return
	}
	found := false
	err := ss.srv.kv.WithTxn(ss.tx, func(tx *core.Txn) error {
		var err error
		found, err = ss.srv.kv.Del(tx, []byte(rest))
		return err
	})
	if err != nil {
		ss.fail(err)
		return
	}
	if !found {
		ss.w.WriteString("NOTFOUND\n")
		return
	}
	ss.w.WriteString("OK\n")
}

func (ss *session) cmdScan(rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 || len(fields) > 3 {
		ss.errorf("usage", "SCAN <lo> <hi> [limit]  (\"-\" = open bound)")
		return
	}
	var lo, hi []byte
	if fields[0] != "-" {
		lo = []byte(fields[0])
	}
	if fields[1] != "-" {
		hi = []byte(fields[1])
	}
	limit := defaultScan
	if len(fields) == 3 {
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 || n > maxScan {
			ss.errorf("usage", "bad limit %q (1..%d)", fields[2], maxScan)
			return
		}
		limit = n
	}
	rows, err := ss.srv.kv.Scan(lo, hi, limit)
	if err != nil {
		ss.fail(err)
		return
	}
	for _, r := range rows {
		ss.w.WriteString("ROW ")
		ss.w.Write(r.Key)
		ss.w.WriteByte(' ')
		ss.w.Write(r.Value)
		ss.w.WriteByte('\n')
	}
	ss.okUint(uint64(len(rows)))
}

func (ss *session) cmdStats() {
	snap := ss.srv.db.Metrics()
	cache := ss.srv.db.CacheStats()
	stats := map[string]any{
		"health":              ss.srv.db.Health().String(),
		"commit_txns":         snap.Counters["commit.txn"],
		"commit_batches":      snap.Counters["commit.batch"],
		"commit_fails":        snap.Counters["commit.fail"],
		"commit_sync_skipped": snap.Counters["commit.sync.skipped"],
		"flush_passes":        snap.Counters["flush.daemon"],
		"cache_hits":          cache.Hits,
		"cache_misses":        cache.Misses,
		"evict_promotions":    snap.Counters["pool.evict.promote"],
		"batch_puts":          snap.Counters["batch.put"],
		"batch_leaf_runs":     snap.Counters["batch.leafrun"],
		// Where a commit's time goes: waiting for the batch that carries it,
		// the batched force, the status append (commit_latency is all three
		// as one committer sees them), and how many appends filled a status
		// page and so needed the two-phase write.
		"commit_latency_ns":      snap.Timers["commit.latency"].TotalNs,
		"commit_queue_ns":        snap.Timers["commit.queue"].TotalNs,
		"commit_force_ns":        snap.Timers["commit.force"].TotalNs,
		"commit_status_ns":       snap.Timers["commit.status"].TotalNs,
		"commit_status_twophase": snap.Counters["commit.status.twophase"],
		// The pipeline: batches that began to force while an earlier batch's
		// status append was pending, and how long forced batches waited for
		// their turn to append.
		"commit_overlaps": snap.Counters["commit.overlap"],
		"commit_turn_ns":  snap.Timers["commit.turn"].TotalNs,
		// Restart: what the index opens left running in the background,
		// and how many operations had to wait for it.
		"open_boundwalks":      snap.Counters["open.boundwalk"],
		"open_boundwalk_pages": snap.Counters["open.boundwalk.pages"],
		"open_boundwalk_ns":    snap.Timers["open.boundwalk"].TotalNs,
		"open_gate_waits":      snap.Counters["open.gate.wait"],
		// Read-ahead: reads started for pages a request was about to need,
		// hints dropped with eight reads already in flight, and pages read
		// ahead that were evicted before anyone asked for them.
		"hints_issued":  snap.Counters["hint.issued"],
		"hints_dropped": snap.Counters["hint.dropped"],
		"hints_wasted":  snap.Counters["hint.wasted"],
	}
	b, err := json.Marshal(stats)
	if err != nil {
		ss.fail(err)
		return
	}
	ss.okValue(b)
}
