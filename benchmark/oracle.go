package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// Keys are "k%08d" of a key number; values are 100 bytes embedding the key
// and a per-key version, so any reply can be checked on its own:
//
//	k00000012.00000007.xxxxxxxx...x
const (
	keyLen   = 9
	valueLen = 100
	verOff   = keyLen + 1
	padOff   = verOff + 8 + 1

	// absentBase starts the key numbers GETs of absent keys use, and
	// phantomBase those of the uncommitted inserts a crash must erase;
	// neither range is ever committed.
	absentBase  = 80000000
	phantomBase = 90000000
)

var valuePad = bytes.Repeat([]byte{'x'}, valueLen-padOff)

func putDigits(dst []byte, n int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + n%10)
		n /= 10
	}
}

func parseDigits(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// appendKey appends the name of key number k.
func appendKey(dst []byte, k int) []byte {
	n := len(dst)
	dst = append(dst, "k00000000"...)
	putDigits(dst[n+1:], k)
	return dst
}

// appendValue appends the value of version ver of key number k.
func appendValue(dst []byte, k, ver int) []byte {
	n := len(dst)
	dst = appendKey(dst, k)
	dst = append(dst, ".00000000."...)
	putDigits(dst[n+verOff:n+verOff+8], ver)
	return append(dst, valuePad...)
}

// parseKey returns the key number a key names.
func parseKey(b []byte) (int, bool) {
	if len(b) != keyLen || b[0] != 'k' {
		return 0, false
	}
	return parseDigits(b[1:])
}

// parseValue checks that b is a well-formed value of key number k and
// returns its version.
func parseValue(b []byte, k int) (int, bool) {
	if len(b) != valueLen || b[keyLen] != '.' || b[padOff-1] != '.' || !bytes.Equal(b[padOff:], valuePad) {
		return 0, false
	}
	if got, ok := parseKey(b[:keyLen]); !ok || got != k {
		return 0, false
	}
	return parseDigits(b[verOff : verOff+8])
}

// state packs a key's version and whether that version is a value (PUT)
// or a tombstone (DEL, or never written).
type state uint32

func mkState(ver int, present bool) state {
	s := state(ver) << 1
	if present {
		s |= 1
	}
	return s
}
func (s state) ver() int      { return int(s >> 1) }
func (s state) present() bool { return s&1 == 1 }

// keyState is the oracle's record of one key. Only the key's owning writer
// stores to it; every client loads from it. All three fields only grow.
type keyState struct {
	acked   atomic.Uint32 // state of the last acknowledged write
	pending atomic.Uint32 // state of the last write sent (acked or not)
	lastDel atomic.Uint32 // version of the last DEL sent
}

// oracle is the model every reply is checked against, plus the per-verb
// attempt and failure counts that feed failed_frac.
type oracle struct {
	keys     []keyState
	maxKey   atomic.Int64 // highest key number ever sent in a write
	attempts [numVerbs]atomic.Int64
	fails    [numVerbs]atomic.Int64

	mu       sync.Mutex
	firstErr string // what the first failure was, for the log
}

// newOracle sizes the model for the loaded keys plus room for new ones.
func newOracle(loaded int) *oracle {
	o := &oracle{keys: make([]keyState, loaded+loaded/2+200000)}
	o.maxKey.Store(int64(loaded - 1))
	return o
}

func (o *oracle) fail(v verb, format string, args ...any) {
	o.fails[v].Add(1)
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.firstErr == "" {
		o.firstErr = v.String() + ": " + fmt.Sprintf(format, args...)
	}
}

// note adds where a failure was found to the first failure's text, if the
// failure just counted was the first.
func (o *oracle) note(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, failed := o.totals(); failed == 1 {
		o.firstErr += " " + fmt.Sprintf(format, args...)
	}
}

func (o *oracle) totals() (attempted, failed int64) {
	for v := verb(0); v < numVerbs; v++ {
		attempted += o.attempts[v].Load()
		failed += o.fails[v].Load()
	}
	return attempted, failed
}

// beginWrite records that the owner is about to send a write of key k and
// returns the version it will carry.
func (o *oracle) beginWrite(k int, present bool) int {
	st := &o.keys[k]
	ver := state(st.pending.Load()).ver() + 1
	if !present {
		st.lastDel.Store(uint32(ver))
	}
	st.pending.Store(uint32(mkState(ver, present)))
	for {
		m := o.maxKey.Load()
		if int64(k) <= m || o.maxKey.CompareAndSwap(m, int64(k)) {
			break
		}
	}
	return ver
}

// ackWrite records that the write beginWrite announced was acknowledged.
func (o *oracle) ackWrite(k int) {
	st := &o.keys[k]
	st.acked.Store(st.pending.Load())
}

// before snapshots what was acknowledged for key k; a reader takes it
// before sending, so a reply older than it is stale.
func (o *oracle) before(k int) state {
	if k >= len(o.keys) {
		return 0
	}
	return state(o.keys[k].acked.Load())
}

// checkValue verifies a value returned for key k by a request sent when lo
// was acknowledged: well-formed, no older than lo, no newer than the last
// write sent.
func (o *oracle) checkValue(v verb, k int, lo state, val []byte) bool {
	if k >= len(o.keys) {
		o.fail(v, "key %d was never written but has value %.30q", k, val)
		return false
	}
	ver, ok := parseValue(val, k)
	if !ok {
		o.fail(v, "key %d: malformed value %.40q", k, val)
		return false
	}
	hi := state(o.keys[k].pending.Load()).ver()
	if ver < lo.ver() || ver > hi || (ver == lo.ver() && !lo.present()) {
		o.fail(v, "key %d: version %d outside acked %d (present=%v) .. sent %d", k, ver, lo.ver(), lo.present(), hi)
		return false
	}
	return true
}

// checkAbsent verifies that key k may be missing from a reply to a request
// sent when lo was acknowledged.
func (o *oracle) checkAbsent(v verb, k int, lo state) bool {
	if k >= len(o.keys) || !lo.present() || int(o.keys[k].lastDel.Load()) > lo.ver() {
		return true
	}
	o.fail(v, "key %d: acked version %d is missing", k, lo.ver())
	return false
}

// checkGet verifies a GET's outcome for key k, sent when lo was
// acknowledged.
func (o *oracle) checkGet(v verb, k int, lo state, val []byte, found bool) {
	if found {
		o.checkValue(v, k, lo, val)
	} else {
		o.checkAbsent(v, k, lo)
	}
}

// absorb adds another oracle's attempt and failure counts to o, so one
// result line can cover several rungs' stores.
func (o *oracle) absorb(from *oracle) {
	for v := verb(0); v < numVerbs; v++ {
		o.attempts[v].Add(from.attempts[v].Load())
		o.fails[v].Add(from.fails[v].Load())
	}
	if o.firstErr == "" {
		o.firstErr = from.firstErr
	}
}

// liveBytes is the user data a perfect store would hold: key plus value
// bytes of every key whose last acknowledged write is a value.
func (o *oracle) liveBytes() int64 {
	var n int64
	for k := 0; k <= int(o.maxKey.Load()); k++ {
		if state(o.keys[k].acked.Load()).present() {
			n += keyLen + valueLen
		}
	}
	return n
}
