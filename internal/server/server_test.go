package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// client is a scripted protocol client for tests.
type client struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dial(t *testing.T, srv *Server) *client {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, r: bufio.NewReader(c)}
}

func (cl *client) send(line string) {
	cl.t.Helper()
	if _, err := fmt.Fprintf(cl.c, "%s\n", line); err != nil {
		cl.t.Fatalf("send %q: %v", line, err)
	}
}

func (cl *client) recv() string {
	cl.t.Helper()
	cl.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := cl.r.ReadString('\n')
	if err != nil {
		cl.t.Fatalf("recv: %v (got %q)", err, line)
	}
	return strings.TrimRight(line, "\r\n")
}

// do sends a request and returns the single-line reply.
func (cl *client) do(line string) string {
	cl.t.Helper()
	cl.send(line)
	return cl.recv()
}

// expect sends a request and requires an exact reply.
func (cl *client) expect(line, want string) {
	cl.t.Helper()
	if got := cl.do(line); got != want {
		cl.t.Fatalf("%s: got %q, want %q", line, got, want)
	}
}

// expectPrefix sends a request and requires a reply prefix.
func (cl *client) expectPrefix(line, prefix string) string {
	cl.t.Helper()
	got := cl.do(line)
	if !strings.HasPrefix(got, prefix) {
		cl.t.Fatalf("%s: got %q, want prefix %q", line, got, prefix)
	}
	return got
}

// scan sends a SCAN and returns the ROW lines plus the final OK/ERR line.
func (cl *client) scan(line string) (rows []string, final string) {
	cl.t.Helper()
	cl.send(line)
	for {
		got := cl.recv()
		if strings.HasPrefix(got, "ROW ") {
			rows = append(rows, strings.TrimPrefix(got, "ROW "))
			continue
		}
		return rows, got
	}
}

// servedVariants are the index variants a server serves.
var servedVariants = []core.Variant{core.Shadow, core.Reorg, core.Hybrid}

// openServer opens a DB over store as fastrec-server does, with pools of pool
// frames (0: the default), the flush daemon off and a recorder, serves it with
// opts on a loopback port and waits for its bound walks. The server closes
// when the test ends; the DB is the caller's, since a test that crashes the
// store never closes it.
func openServer(t testing.TB, store core.Storage, pool int, opts Options) (*core.DB, *Server, *obs.Recorder) {
	t.Helper()
	rec := obs.New(0)
	db, err := core.Open(store, core.Config{PoolSize: pool, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.kv.idx.Tree().AwaitBound(); err != nil {
		t.Fatal(err)
	}
	return db, srv, rec
}

// TestZeroOptionsServeShadow: a server built from zero Options serves the
// shadow-page index (§3.3), not the zero Variant, which is the Normal tree
// with no crash protection.
func TestZeroOptionsServeShadow(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	if v := srv.kv.idx.Tree().Variant(); v != core.Shadow {
		t.Fatalf("zero Options serve a %v index, want shadow", v)
	}
}

// TestServerSmoke exercises every protocol verb over real TCP, including
// the error paths, then asserts a clean graceful shutdown.
func TestServerSmoke(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	cl := dial(t, srv)

	// Explicit transaction: own writes are invisible until COMMIT (reads
	// see committed data only), then durable and visible.
	begin := cl.expectPrefix("BEGIN", "OK ")
	xid := strings.TrimPrefix(begin, "OK ")
	cl.expect("PUT alpha one", "OK")
	cl.expect("PUT beta two words here", "OK")
	cl.expect("GET alpha", "NOTFOUND")
	cl.expect("COMMIT", "OK "+xid)
	cl.expect("GET alpha", "OK one")
	cl.expect("GET beta", "OK two words here")

	// Autocommit: visible immediately after the OK.
	cl.expect("PUT gamma three", "OK")
	cl.expect("GET gamma", "OK three")

	// Update in place (logically): newest committed version wins.
	cl.expect("PUT alpha uno", "OK")
	cl.expect("GET alpha", "OK uno")

	// ABORT discards the transaction's writes.
	cl.expectPrefix("BEGIN", "OK ")
	cl.expect("PUT doomed never", "OK")
	cl.expectPrefix("ABORT", "OK ")
	cl.expect("GET doomed", "NOTFOUND")

	// DEL, both present and absent.
	cl.expect("DEL gamma", "OK")
	cl.expect("GET gamma", "NOTFOUND")
	cl.expect("DEL gamma", "NOTFOUND")

	// SCAN: range, open bounds, limit.
	rows, final := cl.scan("SCAN - -")
	if final != "OK 2" || len(rows) != 2 {
		t.Fatalf("SCAN - -: rows=%v final=%q", rows, final)
	}
	if rows[0] != "alpha uno" || rows[1] != "beta two words here" {
		t.Fatalf("SCAN rows out of order or wrong: %v", rows)
	}
	rows, final = cl.scan("SCAN alpha beta")
	if final != "OK 1" || len(rows) != 1 || rows[0] != "alpha uno" {
		t.Fatalf("SCAN alpha beta: rows=%v final=%q", rows, final)
	}
	rows, final = cl.scan("SCAN - - 1")
	if final != "OK 1" || len(rows) != 1 {
		t.Fatalf("SCAN with limit: rows=%v final=%q", rows, final)
	}

	// STATS reports through the obs recorder.
	stats := cl.expectPrefix("STATS", "OK {")
	for _, field := range []string{`"commit_txns":`, `"health":`, `"commit_queue_ns":`, `"commit_force_ns":`,
		`"commit_status_ns":`, `"commit_latency_ns":`, `"commit_status_twophase":0`, `"commit_overlaps":0`, `"commit_turn_ns":`} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS missing %s: %q", field, stats)
		}
	}

	// Error paths.
	cl.expectPrefix("FROB x", "ERR usage")
	cl.expectPrefix("PUT loner", "ERR usage")
	cl.expectPrefix("GET two tokens", "ERR usage")
	cl.expectPrefix("SCAN justone", "ERR usage")
	cl.expectPrefix("SCAN a b nope", "ERR usage")
	cl.expectPrefix("COMMIT", "ERR notxn")
	cl.expectPrefix("ABORT", "ERR notxn")
	cl.expectPrefix("BEGIN", "OK ")
	cl.expectPrefix("BEGIN", "ERR txn")
	cl.expectPrefix("ABORT", "OK ")

	// QUIT closes the session from the server side.
	cl.expect("QUIT", "OK bye")
	if _, err := cl.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after QUIT")
	}

	// Graceful shutdown with idle sessions drains cleanly.
	idle := dial(t, srv)
	_ = idle
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}
}

// TestJoinedErrorIsOneLine: an error that spans lines — errors.Join puts a
// newline between the errors it joins — is
// one ERR line on the wire. Written as two, it would leave every later reply
// on the connection answering the request before it.
func TestJoinedErrorIsOneLine(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	c, peer := net.Pipe()
	defer c.Close()
	ss := newSession(srv, peer)
	go func() {
		defer peer.Close()
		ss.fail(errors.Join(errors.New("heap: boom"), errors.New("index: boom\r")))
		ss.dispatch("GET k")
		ss.w.Flush()
	}()
	var lines []string
	sc := bufio.NewScanner(c)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "ERR server heap: boom") ||
		strings.Contains(lines[0], "\r") || lines[1] != "NOTFOUND" {
		t.Fatalf("replies %q; want one ERR line naming both errors, then NOTFOUND", lines)
	}
}

// TestServerDrainsInFlightCommit: a commit already executing when Close is
// called completes and the client gets its OK before the drain finishes.
func TestServerDrainsInFlightCommit(t *testing.T) {
	store := core.Memory()
	db, srv, _ := openServer(t, store, 0, Options{})
	defer db.Close()

	// Slow the control disk so the commit is still in its device sync when
	// Close lands.
	core.MemoryDisks(store)["control"].SetLatency(0, 2*time.Millisecond)

	cl := dial(t, srv)
	cl.expectPrefix("BEGIN", "OK ")
	for i := 0; i < 20; i++ {
		cl.expect(fmt.Sprintf("PUT drain-%02d v%d", i, i), "OK")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond) // let COMMIT start first
		if err := srv.Close(); err != nil {
			t.Errorf("Close during in-flight commit: %v", err)
		}
	}()
	cl.expectPrefix("COMMIT", "OK ")
	wg.Wait()

	// New connections are refused once draining.
	if c, err := net.Dial("tcp", srv.Addr().String()); err == nil {
		c.Close()
		// The listener may race the close; what matters is no session is
		// served: a request must get no reply.
		c2, err := net.Dial("tcp", srv.Addr().String())
		if err == nil {
			c2.Close()
		}
	}

	// The commit that raced the shutdown is durable.
	for _, d := range core.MemoryDisks(store) {
		if err := d.CrashPartial(storage.CrashNone); err != nil {
			t.Fatal(err)
		}
	}
	db2, srv2, _ := openServer(t, store, 0, Options{})
	defer db2.Close()
	cl2 := dial(t, srv2)
	cl2.expect("GET drain-00", "OK v0")
	cl2.expect("GET drain-19", "OK v19")
}

// TestServerCrashRecover is the paper's pitch run end to end over the
// wire, for every served variant: commit through one server generation,
// crash the machine (every unsynced write lost), reopen instantly, and serve
// the committed data — with the in-flight transaction's writes gone.
func TestServerCrashRecover(t *testing.T) {
	for _, v := range servedVariants {
		t.Run(v.String(), func(t *testing.T) {
			store := core.Memory()
			_, srv, _ := openServer(t, store, 0, Options{Variant: v}) // its DB is never closed: the machine dies, it doesn't exit

			cl := dial(t, srv)
			for i := 0; i < 10; i++ {
				cl.expect(fmt.Sprintf("PUT stable-%02d value-%d", i, i), "OK")
			}
			cl.expect("DEL stable-03", "OK")

			// A second client dies mid-transaction: its writes must not survive.
			loser := dial(t, srv)
			loser.expectPrefix("BEGIN", "OK ")
			loser.expect("PUT phantom boo", "OK")
			loser.expect("PUT stable-00 overwritten", "OK")

			// The machine dies: no Close, no flush — every write that was not
			// device-synced is gone.
			for _, d := range core.MemoryDisks(store) {
				if err := d.CrashPartial(storage.CrashNone); err != nil {
					t.Fatal(err)
				}
			}

			// Restart: open + serve, no log replay.
			db2, srv2, _ := openServer(t, store, 0, Options{Variant: v})
			defer db2.Close()

			cl2 := dial(t, srv2)
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("stable-%02d", i)
				if i == 3 {
					cl2.expect("GET "+key, "NOTFOUND") // committed delete survived
					continue
				}
				cl2.expect("GET "+key, fmt.Sprintf("OK value-%d", i))
			}
			cl2.expect("GET phantom", "NOTFOUND") // in-flight txn vanished
			rows, final := cl2.scan("SCAN - -")
			if final != "OK 9" {
				t.Fatalf("post-crash SCAN: rows=%v final=%q", rows, final)
			}

			cl2.expect("QUIT", "OK bye")
			if err := srv2.Close(); err != nil {
				t.Fatalf("graceful Close after recovery: %v", err)
			}
		})
	}
}

// TestServerXIDNotReusedAfterCrash is the wire twin of the txn-level test,
// in the order the benchmark still steers round (known engine failure #3):
// the burst of commits first, THEN the BEGIN of the transaction that dies.
// Its heap pages reach the disk (a flush pass), the machine dies, and the
// first transaction after the restart must get an XID above the dead one —
// its commit must not make the dead transaction's rows visible.
func TestServerXIDNotReusedAfterCrash(t *testing.T) {
	store := core.Memory()
	db, srv, _ := openServer(t, store, 0, Options{})

	cl := dial(t, srv)
	for i := 0; i < 10; i++ {
		cl.expect(fmt.Sprintf("PUT stable-%02d value-%d", i, i), "OK")
	}
	loser := dial(t, srv)
	deadXID := loser.expectPrefix("BEGIN", "OK ") // after the last commit
	loser.expect("PUT phantom boo", "OK")
	loser.expect("PUT stable-00 overwritten", "OK")
	loser.expect("DEL stable-01", "OK")
	if err := db.FlushAll(); err != nil { // what the 50 ms daemon does
		t.Fatal(err)
	}
	for _, d := range core.MemoryDisks(store) {
		if err := d.CrashPartial(storage.CrashAll); err != nil {
			t.Fatal(err)
		}
	}

	db2, srv2, _ := openServer(t, store, 0, Options{})
	defer db2.Close()
	cl2 := dial(t, srv2)
	newXID := cl2.expectPrefix("BEGIN", "OK ")
	var dead, fresh uint64
	fmt.Sscan(strings.TrimPrefix(deadXID, "OK "), &dead)
	fmt.Sscan(strings.TrimPrefix(newXID, "OK "), &fresh)
	if dead == 0 || fresh <= dead {
		t.Errorf("BEGIN after the restart returned XID %d; the dead transaction had %d", fresh, dead)
	}
	cl2.expect("PUT after-crash yes", "OK")
	cl2.expectPrefix("COMMIT", "OK ")

	cl2.expect("GET phantom", "NOTFOUND")
	cl2.expect("GET stable-00", "OK value-0")
	cl2.expect("GET stable-01", "OK value-1")
	cl2.expect("GET after-crash", "OK yes")
	if rows, final := cl2.scan("SCAN - -"); final != "OK 11" {
		t.Fatalf("post-crash SCAN: rows=%v final=%q", rows, final)
	}
	// The dead transaction's xmax on stable-00 and stable-01 is neither
	// committed nor live: both versions take their next writer.
	cl2.expect("PUT stable-00 rewritten", "OK")
	cl2.expect("GET stable-00", "OK rewritten")
	cl2.expect("DEL stable-01", "OK")
	cl2.expect("GET stable-01", "NOTFOUND")
	cl2.expect("QUIT", "OK bye")
	if err := srv2.Close(); err != nil {
		t.Fatalf("graceful Close after recovery: %v", err)
	}
}

// TestServerConcurrentClients hammers autocommit PUTs from several
// connections at once — the group-commit path end to end — then checks
// every committed key reads back and the coordinator actually batched.
func TestServerConcurrentClients(t *testing.T) {
	store := core.Memory()
	db, srv, rec := openServer(t, store, 0, Options{})
	defer db.Close()
	defer srv.Close()
	// A write cost on every device keeps commits overlapping so the
	// coordinator actually forms multi-member batches.
	for _, d := range core.MemoryDisks(store) {
		d.SetLatency(0, 200*time.Microsecond)
	}

	const clients, puts = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < puts; i++ {
				fmt.Fprintf(conn, "PUT c%d-k%02d v%d.%d\n", c, i, c, i)
				line, err := r.ReadString('\n')
				if err != nil || strings.TrimSpace(line) != "OK" {
					t.Errorf("client %d put %d: %q %v", c, i, line, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	cl := dial(t, srv)
	for c := 0; c < clients; c++ {
		for i := 0; i < puts; i++ {
			cl.expect(fmt.Sprintf("GET c%d-k%02d", c, i), fmt.Sprintf("OK v%d.%d", c, i))
		}
	}
	if got := rec.Get(obs.CommitTxn); got < clients*puts {
		t.Fatalf("commit.txn = %d, want >= %d", got, clients*puts)
	}
	if rec.Get(obs.CommitBatch) >= rec.Get(obs.CommitTxn) {
		t.Fatalf("no batching: %d batches for %d txns",
			rec.Get(obs.CommitBatch), rec.Get(obs.CommitTxn))
	}
}

// TestServerDropsTruncatedPartialLineOnDrain: a command whose bytes are
// still in flight when the server drains must NOT be executed. TCP can
// segment a line anywhere, so a read interrupted by the drain deadline may
// hold a truncated prefix of a command ("PUT trunc hel" of
// "PUT trunc hello"); executing it would durably autocommit a corrupted
// value. Only a clean EOF proves the final unterminated line arrived whole.
func TestServerDropsTruncatedPartialLineOnDrain(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Half a command, no newline; the rest never arrives.
	if _, err := c.Write([]byte("PUT trunc hel")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the session park in its read
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}

	_, found, err := srv.kv.Get([]byte("trunc"))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("truncated partial line was executed at drain")
	}
}

// TestServerServesFinalLineOnCleanEOF is the flip side: a client that
// writes a complete command and closes without a trailing newline DID send
// the whole line — the clean EOF proves it — so it is served.
func TestServerServesFinalLineOnCleanEOF(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	defer srv.Close()

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("PUT eof whole")); err != nil {
		t.Fatal(err)
	}
	c.Close() // FIN: the server's read returns the line plus io.EOF

	deadline := time.Now().Add(5 * time.Second)
	for {
		val, found, err := srv.kv.Get([]byte("eof"))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			if string(val) != "whole" {
				t.Fatalf("final line value = %q, want %q", val, "whole")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("final unterminated line never served after clean EOF")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerRejectsOverlongLineIncrementally: the maxLine cap is enforced
// while the line streams in, so the server replies and closes as soon as
// the cap is crossed — it never waits for (or buffers) an unbounded
// unterminated line first.
func TestServerRejectsOverlongLineIncrementally(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	defer srv.Close()

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		// Stream several maxLine multiples with no newline; the write side
		// errors out once the server rejects and closes, which is fine.
		junk := make([]byte, 64<<10)
		for i := range junk {
			junk[i] = 'x'
		}
		for sent := 0; sent < 3*maxLine; sent += len(junk) {
			if _, err := c.Write(junk); err != nil {
				return
			}
		}
	}()

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("no rejection for unterminated overlong line: %v", err)
	}
	if !strings.HasPrefix(line, "ERR usage line too long") {
		t.Fatalf("reply = %q, want line-too-long error", line)
	}
}

// TestScanPrefixInterleavedKeys pins SCAN against the index's raw entry
// order. Index entries are <user key><6-byte TID>, so entries of a SHORT
// key sort after entries of longer keys sharing its prefix whenever the
// short key's first TID byte (the heap page number's low byte) exceeds the
// longer key's next byte. A limit cutoff keyed on "distinct keys seen" can
// therefore stop before ever reaching the range's smallest key. Keys "a"
// (tuple forced onto heap page >= 1, TID first byte >= 1) and "a\x00?"
// (next key byte 0x00) produce exactly that interleaving.
func TestScanPrefixInterleavedKeys(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	defer srv.Close()
	cl := dial(t, srv)

	// Push the heap past page 0 so later tuples get TIDs with a nonzero
	// low page byte.
	pad := strings.Repeat("p", 2000)
	for i := 0; i < 24; i++ {
		cl.expect(fmt.Sprintf("PUT z%02d %s", i, pad), "OK")
	}
	for _, k := range []string{"a\x00a", "a\x00b", "a\x00c", "a\x00d"} {
		cl.expect("PUT "+k+" ext", "OK")
	}
	cl.expect("PUT a short", "OK")

	tid, _, found, err := srv.kv.lookup([]byte("a"))
	if err != nil || !found {
		t.Fatalf("lookup of key a: found=%v err=%v", found, err)
	}
	if byte(tid.PageNo) == 0 {
		t.Fatal("test setup: key \"a\" landed on heap page 0; its entries would not interleave — increase padding")
	}

	// The lookup twin: GET reads the index from "a" to the successor of the
	// largest entry "a" could own, and so walks through the "a\x00?" entries
	// to its own. Neither they nor a second version of either key may change
	// what it answers.
	cl.expect("GET a", "OK short")
	cl.expect("GET a\x00c", "OK ext")
	cl.expect("GET a\x00", "NOTFOUND")
	cl.expect("PUT a\x00c ext2", "OK")
	cl.expect("PUT a shorter", "OK")
	cl.expect("GET a", "OK shorter")
	cl.expect("GET a\x00c", "OK ext2")
	cl.expect("DEL a", "OK")
	cl.expect("GET a", "NOTFOUND")
	cl.expect("GET a\x00a", "OK ext")
	cl.expect("PUT a short", "OK")
	cl.expect("PUT a\x00c ext", "OK")

	// "a" is the smallest key in [a, b) but its entries sort after every
	// "a\x00?" entry; a limited SCAN must still rank it first.
	rows, final := cl.scan("SCAN a b 2")
	if final != "OK 2" {
		t.Fatalf("SCAN a b 2: rows=%v final=%q", rows, final)
	}
	if rows[0] != "a short" || rows[1] != "a\x00a ext" {
		t.Fatalf("limited SCAN missed the low-sorting key: %q", rows)
	}

	// The unlimited range returns every key, still in key order.
	rows, final = cl.scan("SCAN a b")
	want := []string{"a short", "a\x00a ext", "a\x00b ext", "a\x00c ext", "a\x00d ext"}
	if final != fmt.Sprintf("OK %d", len(want)) {
		t.Fatalf("SCAN a b: rows=%v final=%q", rows, final)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("SCAN row %d = %q, want %q (all: %q)", i, rows[i], want[i], rows)
		}
	}
}

// TestServerQuarantinedHeapPage: a heap page the pool refuses to serve is
// reported as what it is, never as a missing key. GET, DEL and SCAN of a key
// whose versions sit on a quarantined page reply "ERR quarantined", and a PUT
// writes no second live version beside the one it cannot read. Released, the
// page serves the key's newest version again.
func TestServerQuarantinedHeapPage(t *testing.T) {
	db, srv, _ := openServer(t, core.Memory(), 0, Options{})
	defer db.Close()
	defer srv.Close()
	cl := dial(t, srv)

	cl.expect("PUT alpha one", "OK")
	cl.expect("PUT alpha two", "OK")
	pool := srv.kv.rel.Heap().Pool()
	pool.QuarantinePage(1, "test: unreadable heap page", false)
	if got := db.Health(); got != core.Degraded {
		t.Fatalf("health = %v, want degraded", got)
	}
	cl.expectPrefix("GET alpha", "ERR quarantined ")
	cl.expectPrefix("DEL alpha", "ERR quarantined ")
	cl.expectPrefix("PUT alpha three", "ERR quarantined ")
	if rows, final := cl.scan("SCAN - - 10"); len(rows) != 0 || !strings.HasPrefix(final, "ERR quarantined ") {
		t.Fatalf("SCAN over a quarantined heap page: rows=%v final=%q", rows, final)
	}

	pool.ReleaseQuarantine(1)
	cl.expect("GET alpha", "OK two")
	if rows, final := cl.scan("SCAN - - 10"); final != "OK 1" || len(rows) != 1 || rows[0] != "alpha two" {
		t.Fatalf("SCAN after release: rows=%v final=%q", rows, final)
	}
}

// TestServerSweepHealsQuarantinedHeapPage: a store served with the daemon
// on (FlushEvery > 0, as fastrec-server runs) heals a quarantined heap page
// by itself: the sweep after a checkpoint finds the page's durable image
// clean and releases it. Until then every reply over the wire is the typed
// quarantine error, never a missing key or a wrong value.
func TestServerSweepHealsQuarantinedHeapPage(t *testing.T) {
	rec := obs.New(64)
	db, err := core.Open(core.Memory(), core.Config{FlushEvery: 2 * time.Millisecond, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl := dial(t, srv)
	cl.expect("PUT alpha one", "OK")
	cl.expect("PUT alpha two", "OK")

	srv.kv.rel.Heap().Pool().QuarantinePage(1, "test: spurious quarantine", false)
	deadline := time.Now().Add(5 * time.Second)
	for quarantined := 0; ; quarantined++ {
		got := cl.do("GET alpha")
		if got == "OK two" {
			break
		}
		if !strings.HasPrefix(got, "ERR quarantined ") {
			t.Fatalf("GET alpha after %d quarantined replies: %q, want OK two or ERR quarantined", quarantined, got)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the daemon never released the heap page; report: %+v", db.HealthReport())
		}
		time.Sleep(time.Millisecond)
	}
	if got := db.Health(); got != core.Healthy {
		t.Fatalf("health after the sweep = %v, want healthy", got)
	}
	if rec.Get(obs.SupervisorRepair) == 0 {
		t.Fatal("supervisor.repair not counted")
	}
	cl.expect("PUT alpha three", "OK")
	if rows, final := cl.scan("SCAN - - 10"); final != "OK 1" || len(rows) != 1 || rows[0] != "alpha three" {
		t.Fatalf("SCAN after the sweep: rows=%v final=%q", rows, final)
	}
}

// TestServerShardedSmokeAndCrashRecover runs the protocol against the
// primary index of every served variant: SCAN yields the keys in key order,
// whole and bounded, STATS carries the cache and commit counters and no
// shard lines, and a crash + restart recovers the tree.
func TestServerShardedSmokeAndCrashRecover(t *testing.T) {
	for _, v := range servedVariants {
		t.Run(v.String(), func(t *testing.T) { smokeAndCrashRecover(t, v) })
	}
}

func smokeAndCrashRecover(t *testing.T, v core.Variant) {
	store := core.Memory()
	_, srv, _ := openServer(t, store, 0, Options{Variant: v})

	cl := dial(t, srv)
	const n = 60
	for i := 0; i < n; i++ {
		cl.expect(fmt.Sprintf("PUT key-%03d val-%d", i, i), "OK")
	}
	for i := 0; i < n; i++ {
		cl.expect(fmt.Sprintf("GET key-%03d", i), fmt.Sprintf("OK val-%d", i))
	}
	rows, final := cl.scan(fmt.Sprintf("SCAN - - %d", n))
	if final != fmt.Sprintf("OK %d", n) {
		t.Fatalf("SCAN: final=%q rows=%d", final, len(rows))
	}
	for i, r := range rows {
		if want := fmt.Sprintf("key-%03d val-%d", i, i); r != want {
			t.Fatalf("SCAN row %d = %q, want %q", i, r, want)
		}
	}
	rows, final = cl.scan("SCAN key-010 key-015")
	if final != "OK 5" || rows[0] != "key-010 val-10" {
		t.Fatalf("bounded SCAN: rows=%v final=%q", rows, final)
	}

	stats := cl.expectPrefix("STATS", "OK {")
	for _, field := range []string{
		`"commit_sync_skipped":`, `"cache_hits":`, `"cache_misses":`, `"commit_batches":`,
	} {
		if !strings.Contains(stats, field) {
			t.Fatalf("STATS missing %s: %q", field, stats)
		}
	}
	if strings.Contains(stats, `"shard`) {
		t.Fatalf("STATS has a shard line: %q", stats)
	}

	// A transaction in flight when the machine dies.
	loser := dial(t, srv)
	loser.expectPrefix("BEGIN", "OK ")
	loser.expect("PUT phantom boo", "OK")
	for _, d := range core.MemoryDisks(store) {
		if err := d.CrashPartial(storage.CrashNone); err != nil {
			t.Fatal(err)
		}
	}

	// Restart against the same files: recovery is just reopening + serving.
	db2, srv2, _ := openServer(t, store, 0, Options{Variant: v})
	defer db2.Close()
	cl2 := dial(t, srv2)
	for i := 0; i < n; i++ {
		cl2.expect(fmt.Sprintf("GET key-%03d", i), fmt.Sprintf("OK val-%d", i))
	}
	cl2.expect("GET phantom", "NOTFOUND")
	rows, final = cl2.scan(fmt.Sprintf("SCAN - - %d", n))
	if final != fmt.Sprintf("OK %d", n) {
		t.Fatalf("post-crash SCAN: final=%q rows=%d", final, len(rows))
	}

	cl2.expect("QUIT", "OK bye")
	if err := srv2.Close(); err != nil {
		t.Fatalf("graceful Close: %v", err)
	}
}

// stageShardCount writes dir's idx_kv_pk.shards holding n, as a build whose
// primary index could span several hash-routed trees left it.
func stageShardCount(t *testing.T, dir string, n int) {
	t.Helper()
	d, err := storage.OpenFileDisk(filepath.Join(dir, "idx_kv_pk.shards.pg"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := page.New()
	buf.Init(page.TypeMeta, 0)
	binary.BigEndian.PutUint32(buf[page.HeaderSize:], 0x53484152) // "SHAR"
	binary.BigEndian.PutUint32(buf[page.HeaderSize+4:], uint32(n))
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestServerShardMismatchRefused: a store holding a shard count for the
// primary index is refused by New with ErrShardMismatch instead of served
// as a new, empty index. One tree over what a four-tree index left (its
// count file) creates no tree file; a count of four staged beside a loaded
// one-tree store is refused too, and the refused open leaves the store as it
// was: without the count file it serves every key.
func TestServerShardMismatchRefused(t *testing.T) {
	refused := func(t *testing.T, store core.Storage) {
		t.Helper()
		db, err := core.Open(store, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if srv, err := New(db, Options{}); !errors.Is(err, core.ErrShardMismatch) || srv != nil {
			t.Fatalf("New over a count of 4: %v, %v; want ErrShardMismatch and no server", srv, err)
		}
	}
	t.Run("one over four", func(t *testing.T) {
		dir := t.TempDir()
		stageShardCount(t, dir, 4)
		refused(t, core.Dir(dir))
		if _, err := os.Stat(filepath.Join(dir, "idx_kv_pk.pg")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the refused New left idx_kv_pk.pg: %v", err)
		}
	})
	t.Run("four over one", func(t *testing.T) {
		dir := t.TempDir()
		store := core.Dir(dir)
		db, srv, _ := openServer(t, store, 0, Options{})
		cl := dial(t, srv)
		for i := 0; i < 20; i++ {
			cl.expect(fmt.Sprintf("PUT key-%03d val-%d", i, i), "OK")
		}
		cl.expect("QUIT", "OK bye")
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		stageShardCount(t, dir, 4)
		refused(t, store)
		if err := os.Remove(filepath.Join(dir, "idx_kv_pk.shards.pg")); err != nil {
			t.Fatal(err)
		}
		db3, srv3, _ := openServer(t, store, 0, Options{})
		defer db3.Close()
		cl2 := dial(t, srv3)
		for i := 0; i < 20; i++ {
			cl2.expect(fmt.Sprintf("GET key-%03d", i), fmt.Sprintf("OK val-%d", i))
		}
		cl2.expect("QUIT", "OK bye")
	})
}
