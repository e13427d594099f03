package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"
)

// sample is one request's latency and when it completed, both in
// nanoseconds, the latter since the phase began.
type sample struct{ at, ns int64 }

// samples holds per-verb request samples in completion order.
type samples [numVerbs][]sample

func (s *samples) merge(from *samples) {
	for v := range s {
		s[v] = append(s[v], from[v]...)
	}
}

// wireVerb folds the generator's verbs onto the metric they feed.
func wireVerb(v verb) verb {
	switch v {
	case vGetAbsent:
		return vGet
	case vPutNew:
		return vPut
	}
	return v
}

// client is one closed-loop protocol connection: it sends a request only
// after the previous reply has been read and checked against the oracle.
type client struct {
	c   net.Conn
	r   *bufio.Reader
	o   *oracle
	req []byte
	// epoch is when the current phase began; lat its samples.
	epoch time.Time
	lat   samples
	sc    scanCheck
	tr    *tracer // nil unless this is the traced wire rung
}

func dial(addr string, o *oracle) (*client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{c: c, r: bufio.NewReaderSize(c, 256<<10), o: o, epoch: time.Now()}, nil
}

func (cl *client) close() { cl.c.Close() }

// roundTrip sends the request built in cl.req and returns the first reply
// line (without its newline; valid until the next read).
func (cl *client) roundTrip() ([]byte, error) {
	if _, err := cl.c.Write(cl.req); err != nil {
		return nil, err
	}
	return cl.readLine()
}

func (cl *client) readLine() ([]byte, error) {
	line, err := cl.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// do sends one generated request, times it, and checks the reply. A
// transport error is returned; a wrong reply is counted by the oracle.
func (cl *client) do(o *op) error {
	switch o.v {
	case vGet, vGetAbsent:
		return cl.get(o.v, o.key)
	case vScan:
		return cl.scan(o.key, o.rows, -1)
	case vPut, vPutNew:
		return cl.put(o.v, o.key)
	case vDel:
		return cl.del(o.key)
	case vMput:
		return cl.mput(o.keys[:])
	}
	return fmt.Errorf("unknown verb %d", o.v)
}

// timed counts an attempt of v, sends the request built in cl.req and
// records how long the first reply line took.
func (cl *client) timed(v verb) ([]byte, error) {
	cl.o.attempts[v].Add(1)
	v = wireVerb(v)
	sp := cl.tr.beginOp(v)
	start := time.Now()
	line, err := cl.roundTrip()
	cl.record(v, start)
	cl.tr.end(sp)
	return line, err
}

func (cl *client) record(v verb, start time.Time) {
	now := time.Now()
	cl.lat[v] = append(cl.lat[v], sample{at: int64(now.Sub(cl.epoch)), ns: int64(now.Sub(start))})
}

func (cl *client) get(v verb, k int) error {
	lo := cl.o.before(k)
	cl.req = appendKey(append(cl.req[:0], "GET "...), k)
	cl.req = append(cl.req, '\n')
	line, err := cl.timed(v)
	if err != nil {
		return err
	}
	switch {
	case bytes.Equal(line, []byte("NOTFOUND")):
		cl.o.checkGet(v, k, lo, nil, false)
	case bytes.HasPrefix(line, []byte("OK ")):
		cl.o.checkGet(v, k, lo, line[3:], true)
	default:
		cl.o.fail(v, "key %d: reply %.60q", k, line)
	}
	return nil
}

func (cl *client) put(v verb, k int) error {
	ver := cl.o.beginWrite(k, true)
	cl.req = appendKey(append(cl.req[:0], "PUT "...), k)
	cl.req = appendValue(append(cl.req, ' '), k, ver)
	cl.req = append(cl.req, '\n')
	line, err := cl.timed(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(line, []byte("OK")) {
		cl.o.fail(v, "key %d: reply %.80q", k, line)
		return nil
	}
	cl.o.ackWrite(k)
	return nil
}

func (cl *client) del(k int) error {
	was := cl.o.before(k)
	cl.o.beginWrite(k, false)
	cl.req = appendKey(append(cl.req[:0], "DEL "...), k)
	cl.req = append(cl.req, '\n')
	line, err := cl.timed(vDel)
	if err != nil {
		return err
	}
	// The owner is the key's only writer, so it knows which reply is right.
	want := "NOTFOUND"
	if was.present() {
		want = "OK"
	}
	if string(line) != want {
		cl.o.fail(vDel, "key %d: reply %.80q, want %s", k, line, want)
		return nil
	}
	cl.o.ackWrite(k)
	return nil
}

// mput writes the next version of every key in keys with one request; the
// load phase uses it too.
func (cl *client) mput(keys []int) error {
	cl.req = append(cl.req[:0], "MPUT"...)
	for _, k := range keys {
		ver := cl.o.beginWrite(k, true)
		cl.req = appendKey(append(cl.req, ' '), k)
		cl.req = appendValue(append(cl.req, ' '), k, ver)
	}
	cl.req = append(cl.req, '\n')
	line, err := cl.timed(vMput)
	if err != nil {
		return err
	}
	if want := fmt.Sprintf("OK %d", len(keys)); string(line) != want {
		cl.o.fail(vMput, "%d keys from %d: reply %.80q", len(keys), keys[0], line)
		return nil
	}
	for _, k := range keys {
		cl.o.ackWrite(k)
	}
	return nil
}

// scan sends SCAN <from> - <rows> and checks every row (see scanCheck).
// With exact >= 0 the store is quiescent and the reply must hold exactly
// that many rows.
func (cl *client) scan(from, rows, exact int) error {
	cl.o.attempts[vScan].Add(1)
	cl.sc.begin(cl.o, from, rows)
	cl.req = appendKey(append(cl.req[:0], "SCAN "...), from)
	cl.req = fmt.Appendf(cl.req, " - %d\n", rows)

	sp := cl.tr.beginOp(vScan)
	start := time.Now()
	if _, err := cl.c.Write(cl.req); err != nil {
		return err
	}
	for {
		line, err := cl.readLine()
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(line, []byte("ROW ")) {
			cl.record(vScan, start)
			cl.tr.end(sp)
			if want := fmt.Sprintf("OK %d", cl.sc.got); string(line) != want {
				cl.o.fail(vScan, "from %d: final line %.80q, want %q", from, line, want)
				return nil
			}
			break
		}
		row := line[4:]
		if len(row) < keyLen+1 || row[keyLen] != ' ' {
			cl.sc.malformed(row)
			continue
		}
		cl.sc.row(row[:keyLen], row[keyLen+1:])
	}
	cl.sc.finish(exact)
	return nil
}

// scanCheck verifies one SCAN reply row by row: keys ascending and
// well-formed, each value no older than what was acknowledged before the
// request was sent, and no acknowledged key skipped.
type scanCheck struct {
	o          *oracle
	from, rows int
	lo         []state // pre-send snapshot of keys from..from+len(lo)
	next, got  int
	ok         bool
}

// begin snapshots the model before the request is sent. Rows can reach
// past from+rows when keys in between are deleted; keys beyond the
// snapshot window are checked for form and upper bound only.
func (sc *scanCheck) begin(o *oracle, from, rows int) {
	sc.o, sc.from, sc.rows, sc.next, sc.got, sc.ok = o, from, rows, from, 0, true
	sc.lo = sc.lo[:0]
	for k := from; k < from+rows+64; k++ {
		sc.lo = append(sc.lo, o.before(k))
	}
}

func (sc *scanCheck) loAt(k int) state {
	if i := k - sc.from; i < len(sc.lo) {
		return sc.lo[i]
	}
	return 0
}

func (sc *scanCheck) malformed(row []byte) {
	sc.got++
	if sc.ok {
		sc.ok = false
		sc.o.fail(vScan, "from %d: malformed row %.60q", sc.from, row)
	}
}

func (sc *scanCheck) row(key, val []byte) {
	sc.got++
	if !sc.ok {
		return // already counted as failed; the reply is only drained
	}
	k, good := parseKey(key)
	if !good || k < sc.next {
		sc.ok = false
		sc.o.fail(vScan, "from %d: row key %.12q out of order (expected >= %d)", sc.from, key, sc.next)
		return
	}
	for miss := sc.next; miss < k && sc.ok; miss++ {
		sc.ok = sc.o.checkAbsent(vScan, miss, sc.loAt(miss))
	}
	sc.ok = sc.ok && sc.o.checkValue(vScan, k, sc.loAt(k), val)
	if !sc.ok {
		sc.o.note("in SCAN from %d for %d rows, at row %d (key %d)", sc.from, sc.rows, sc.got, k)
	}
	sc.next = k + 1
}

func (sc *scanCheck) finish(exact int) {
	if sc.ok && sc.got < sc.rows {
		// A short reply claims the key space ended: nothing acknowledged
		// may lie beyond the last row.
		for miss := sc.next; miss <= int(sc.o.maxKey.Load()) && sc.ok; miss++ {
			sc.ok = sc.o.checkAbsent(vScan, miss, sc.loAt(miss))
		}
		if !sc.ok {
			sc.o.note("past the last of %d rows of SCAN from %d for %d", sc.got, sc.from, sc.rows)
		}
	}
	if sc.ok && exact >= 0 && sc.got != exact {
		sc.o.fail(vScan, "from %d: %d rows, model has %d", sc.from, sc.got, exact)
	}
}

// expectLine sends a control request (BEGIN, ...) and requires a reply
// starting with prefix.
func (cl *client) expectLine(req, prefix string) error {
	cl.req = append(append(cl.req[:0], req...), '\n')
	line, err := cl.roundTrip()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return fmt.Errorf("%s: reply %.80q, want prefix %q", req, line, prefix)
	}
	return nil
}
