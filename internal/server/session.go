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
			ss.reply("ERR shutdown server is draining")
			ss.w.Flush()
			return
		}
		line, err := ss.readLine()
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				ss.reply("ERR usage line too long")
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
		ss.reply("OK bye")
		return false
	default:
		ss.reply("ERR usage unknown verb %q", verb)
	}
	return true
}

func (ss *session) reply(format string, args ...any) {
	fmt.Fprintf(ss.w, format+"\n", args...)
}

// fail maps engine errors onto protocol error codes.
func (ss *session) fail(err error) {
	switch {
	case errors.Is(err, txn.ErrCommitFailed):
		ss.reply("ERR retry %v", err)
	case errors.Is(err, core.ErrReadOnly):
		ss.reply("ERR readonly %v", err)
	case errors.Is(err, core.ErrFailed):
		ss.reply("ERR failed %v", err)
	case errors.Is(err, core.ErrQuarantined):
		ss.reply("ERR quarantined %v", err)
	default:
		ss.reply("ERR server %v", err)
	}
}

func (ss *session) cmdBegin() {
	if ss.tx != nil {
		ss.reply("ERR txn transaction %d already open", ss.tx.XID())
		return
	}
	ss.tx = ss.srv.db.Begin()
	ss.reply("OK %d", ss.tx.XID())
}

func (ss *session) cmdCommit() {
	if ss.tx == nil {
		ss.reply("ERR notxn no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil // committed or aborted either way — never limbo
	if err := tx.Commit(); err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %d", tx.XID())
}

func (ss *session) cmdAbort() {
	if ss.tx == nil {
		ss.reply("ERR notxn no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil
	if err := tx.Abort(); err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %d", tx.XID())
}

func (ss *session) cmdPut(rest string) {
	i := strings.IndexByte(rest, ' ')
	if rest == "" || i <= 0 || i == len(rest)-1 {
		ss.reply("ERR usage PUT <key> <value>")
		return
	}
	key, value := []byte(rest[:i]), []byte(rest[i+1:])
	err := ss.srv.kv.WithTxn(ss.tx, func(tx *core.Txn) error { return ss.srv.kv.Put(tx, key, value) })
	if err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK")
}

// cmdMput writes several pairs in one round trip. Unlike PUT, values are
// single tokens (the line is split on spaces). All pairs go through one
// transaction and one batched index insert, so a big MPUT pays one descent
// per leaf run and — outside BEGIN — one commit sync, not one per pair.
func (ss *session) cmdMput(rest string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields)%2 != 0 {
		ss.reply("ERR usage MPUT <key> <value> [<key> <value> ...]")
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
	ss.reply("OK %d", n)
}

func (ss *session) cmdGet(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.reply("ERR usage GET <key>")
		return
	}
	val, ok, err := ss.srv.kv.Get([]byte(rest))
	if err != nil {
		ss.fail(err)
		return
	}
	if !ok {
		ss.reply("NOTFOUND")
		return
	}
	ss.reply("OK %s", val)
}

func (ss *session) cmdDel(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.reply("ERR usage DEL <key>")
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
		ss.reply("NOTFOUND")
		return
	}
	ss.reply("OK")
}

func (ss *session) cmdScan(rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 || len(fields) > 3 {
		ss.reply("ERR usage SCAN <lo> <hi> [limit]  (\"-\" = open bound)")
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
			ss.reply("ERR usage bad limit %q (1..%d)", fields[2], maxScan)
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
		ss.reply("ROW %s %s", r.Key, r.Value)
	}
	ss.reply("OK %d", len(rows))
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
	if st := ss.srv.kv.shardStats(); st != nil {
		stats["shards"] = len(st)
		stats["shard_stats"] = st
	}
	b, err := json.Marshal(stats)
	if err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %s", b)
}
