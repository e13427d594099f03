package btree

import (
	"bytes"
	"errors"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// Scan visits keys in [start, end) in order, calling fn for each; fn
// returns false to stop early. A nil start begins at the smallest key; a
// nil end runs to the largest.
//
// Scans use the leaf peer-pointer chain of the B-link tree, verifying each
// hop with the peer sync tokens of §3.5.1: a link is trusted only while the
// tokens on its two ends agree. On any doubt — a token mismatch, a missing
// pointer, or a leaf that still carries pre-crash backup keys — the scan
// falls back to a root-to-leaf descent for the next key, which is where the
// repair machinery lives.
func (t *Tree) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	return t.ScanAhead(start, end, nil, fn)
}

// Pair is one key and value of a scan. The scan copies each leaf's pairs out
// of the page before it shows them to anyone, so both slices are the
// receiver's to keep.
type Pair struct{ Key, Value []byte }

// A LookAhead lets the caller of a scan start the reads it is about to need.
// The scan calls it once per leaf, with the leaf's pairs in [start, end) in
// key order, before it passes the first of them to fn; the slice (not the
// pairs) is reused for the next leaf. It reports whether the caller expects
// to want more than these: if so and the range goes on, the scan hints the
// next leaf to the buffer pool, which reads it while fn works through this
// one.
type LookAhead func(leaf []Pair) (more bool)

// ScanAhead is Scan with a look-ahead installed; a nil ahead makes it Scan,
// which hints nothing.
func (t *Tree) ScanAhead(start, end []byte, ahead LookAhead, fn func(key, value []byte) bool) error {
	t.mu.RLock()
	resume, err := t.scan(start, end, ahead, fn, readOnly)
	t.mu.RUnlock()
	if !errors.Is(err, errNeedsExclusive) {
		return err
	}
	// The same body under the exclusive lock, where it may repair, resuming
	// at the cursor the shared scan reached so no pair is emitted twice.
	t.obs.Count(obs.ExclusiveFallback)
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	_, err = t.scan(resume, end, ahead, fn, repairing)
	return err
}

// scan is the scan body: each leaf's pairs are copied out under its latch,
// validated against the structure version, and only then emitted — so fn
// never sees data from a half-split state. Between the two stands ahead, if
// the caller installed one: it is shown the leaf's pairs and may start the
// reads fn is about to need, and when it expects the scan to outrun this leaf
// the right peer is hinted to the pool, to be read while fn works. A hint has
// no effect but that (buffer.Pool.Hint), so a stale peer pointer is as
// harmless here as in the hop below, which validates what it finds.
//
// readOnly under the shared lock, the body retries what a concurrent split
// can explain and returns errNeedsExclusive, with the cursor to resume at,
// for what it cannot; repairing under the exclusive lock, the version cannot
// move, the descent mends what it meets, and any error is final.
func (t *Tree) scan(start, end []byte, ahead LookAhead, fn func(key, value []byte) bool, mode descentMode) ([]byte, error) {
	cur := start
	if cur == nil {
		cur = []byte{}
	}
	var buf []Pair

	// collect copies this latched leaf's pairs in [cur, end) into buf; done
	// means the end bound was reached. The bytes go into one allocation per
	// leaf, sized to the items in range and not shared with any other leaf's,
	// so a caller may keep what fn was given.
	collect := func(p page.Page) (done bool, err error) {
		first, _, err := leafSearch(p, cur)
		if err != nil {
			return false, err
		}
		stop, size := first, 0
		for ; stop < p.NKeys(); stop++ {
			item := p.Item(stop)
			k, err := itemKey(item)
			if err != nil {
				return false, err
			}
			if end != nil && bytes.Compare(k, end) >= 0 {
				done = true
				break
			}
			size += len(item) - 2 // the key and the value, without the key's length
		}
		if cap(buf) < stop-first {
			buf = make([]Pair, 0, stop-first)
		}
		data := make([]byte, 0, size)
		for pos := first; pos < stop; pos++ {
			k, v, err := decodeLeafItem(p.Item(pos))
			if err != nil {
				return false, err
			}
			data = append(data, k...)
			data = append(data, v...)
			kv := data[len(data)-len(k)-len(v):]
			buf = append(buf, Pair{Key: kv[:len(k):len(k)], Value: kv[len(k):len(kv):len(kv)]})
		}
		return done, nil
	}

	retries := 0
	retry := func() error {
		retries++
		t.obs.Count(obs.LatchRetry)
		if retries > maxSharedRetries {
			return errNeedsExclusive
		}
		retryBackoff(retries)
		return nil
	}

	for {
		v := t.structVer.Load()
		if v%2 != 0 {
			if rerr := retry(); rerr != nil {
				return cur, rerr
			}
			continue
		}
		sc := getDescent()
		leaf, _, err := t.descend(descent{key: cur, mode: mode, ver: v}, sc)
		// The cursor advance below persists hi past this iteration's
		// descent, so detach it from the scratch before recycling.
		hi := cloneBytes(leaf.hi)
		putDescent(sc)
		if errors.Is(err, errRetryShared) {
			if rerr := retry(); rerr != nil {
				return cur, rerr
			}
			continue
		}
		if err != nil {
			return cur, err
		}
		if leaf.frame == nil {
			if t.structStable(v) {
				return cur, nil // empty tree
			}
			if rerr := retry(); rerr != nil {
				return cur, rerr
			}
			continue
		}

		frame, curNo := leaf.frame, leaf.no
		for fromDescent := true; ; fromDescent = false {
			frame.RLatch()
			buf = buf[:0]
			done, cerr := collect(frame.Data)
			rp, rtok := frame.Data.RightPeer(), frame.Data.RightPeerToken()
			frame.RUnlatch()
			if cerr != nil && t.structStable(v) {
				// Not a split's doing: the leaf itself cannot be read.
				frame.Unpin()
				return cur, t.pageErr(mode, v, cerr)
			}
			if cerr != nil || !t.structStable(v) {
				// Discard unvalidated pairs and re-descend at cur.
				frame.Unpin()
				if rerr := retry(); rerr != nil {
					return cur, rerr
				}
				break
			}
			retries = 0
			if fromDescent && (hi == nil || (end != nil && bytes.Compare(hi, end) >= 0)) {
				// The descent's upper bound is authoritative: this leaf
				// reaches the right edge of the key space, or of the range,
				// whatever stale peer pointers may claim.
				done = true
			}
			if ahead != nil && ahead(buf) && !done && rp != 0 {
				t.pool.Hint(rp)
			}
			for _, pr := range buf {
				if !fn(pr.Key, pr.Value) {
					frame.Unpin()
					return cur, nil
				}
			}
			if done {
				frame.Unpin()
				return cur, nil
			}
			if len(buf) > 0 {
				cur = keySuccessor(buf[len(buf)-1].Key)
			}
			if fromDescent {
				// The cursor always moves past the descended leaf's range,
				// so a stale peer chain can cost extra descents but never a
				// livelock.
				cur = maxKeyBytes(cur, hi)
			}
			// Follow trusted peer hops while they keep yielding keys. A hop
			// that yields nothing is suspicious (an emptied or stale leaf),
			// like a missing link or an untrusted peer: let the root path
			// decide where the scan really stands.
			var next *buffer.Frame
			if rp != 0 && (fromDescent || len(buf) > 0) {
				next = t.hopRight(curNo, rp, rtok, nil)
			}
			frame.Unpin()
			if next == nil {
				break // re-descend at cur
			}
			frame, curNo = next, rp
		}
	}
}

// maxKeyBytes returns the larger of two scan cursors.
func maxKeyBytes(a, b []byte) []byte {
	if bytes.Compare(a, b) >= 0 {
		return a
	}
	return b
}

// Count returns the number of keys in the index (a full scan).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}

// Height returns the number of levels in the tree (0 for an empty tree).
func (t *Tree) Height() (int, error) {
	if err := t.lockExclusive(); err != nil {
		return 0, err
	}
	defer t.mu.Unlock()
	return t.heightLocked()
}

// RecoverAll eagerly walks every leaf range through root-to-leaf descents,
// triggering and completing every pending repair. The paper's design
// repairs lazily on first use; this exists for tests, the vacuum, and
// operators who want a bounded recovery pass.
func (t *Tree) RecoverAll() error {
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	return t.recoverWalk(nil)
}

// recoverWalk descends, repairing, into every leaf range in key order, and
// runs the insert-time peer verification on each leaf an insert would
// verify, so the peer chain is fully reconciled (§3.5.1). With a report it
// steps over quarantined subtrees and records them; without one the first
// is an error.
func (t *Tree) recoverWalk(rep *ScanReport) error {
	sc := getDescent()
	defer putDescent(sc)
	cur := []byte{}
	for {
		leaf, _, err := t.descend(descent{key: cur, mode: repairing}, sc)
		if err == nil && leaf.frame != nil {
			if t.needsPeerVerify(leaf.frame) {
				err = t.verifyPeerPath(&leaf)
				if rep != nil && errors.Is(err, buffer.ErrQuarantined) {
					// The peer chain runs into quarantined territory; the
					// ranges themselves are already reported (or will be
					// when descended), so just keep walking by range.
					err = nil
				}
			}
			leaf.frame.Unpin()
		}
		var qe *QuarantinedRangeError
		switch {
		case err == nil && (leaf.frame == nil || leaf.hi == nil):
			return nil // empty tree, or the right edge of the key space
		case err == nil:
			cur = cloneBytes(leaf.hi) // the bound dies with the next descent's staging
		case rep != nil && errors.As(err, &qe):
			rep.skip(qe)
			t.obs.Eventf(obs.ScanSkip, qe.PageNo, "recovery pass skipped quarantined range")
			if qe.Hi == nil || bytes.Compare(qe.Hi, cur) <= 0 {
				return nil
			}
			cur = qe.Hi
		default:
			return err
		}
	}
}
