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
// which hints nothing. The exclusive repairing fallback never looks ahead.
func (t *Tree) ScanAhead(start, end []byte, ahead LookAhead, fn func(key, value []byte) bool) error {
	t.Stats.Scans.Add(1)
	t.mu.RLock()
	resume, err := t.scanShared(start, end, ahead, fn)
	t.mu.RUnlock()
	if err == nil {
		return nil
	}
	if !errors.Is(err, errNeedsExclusive) && !errors.Is(err, errRetryShared) &&
		!errors.Is(err, errNeedsRepair) && !errors.Is(err, buffer.ErrQuarantined) {
		return err
	}
	// Fall back to the exclusive (repairing) path, resuming at the cursor
	// the shared scan reached so no pair is emitted twice.
	t.obs.Count(obs.ExclusiveFallback)
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()
	return t.scanLocked(resume, end, true, fn)
}

func (t *Tree) scanLocked(start, end []byte, repair bool, fn func(key, value []byte) bool) error {
	cur := start
	if cur == nil {
		cur = []byte{}
	}
	for {
		path, err := t.descendPath(cur, repair)
		if err != nil {
			return err
		}
		if path == nil {
			return nil // empty tree
		}
		leaf := path[len(path)-1]
		for _, e := range path[:len(path)-1] {
			e.frame.Unpin()
		}
		frame, hi := leaf.frame, leaf.hi

		done, last, err := emitLeaf(frame.Data, cur, end, fn)
		if err != nil {
			frame.Unpin()
			return err
		}
		if done {
			frame.Unpin()
			return nil
		}
		if hi == nil {
			// The descent placed this leaf at the right edge of the
			// key space: nothing exists beyond it, whatever stale
			// peer pointers may claim.
			frame.Unpin()
			return nil
		}
		if last != nil {
			cur = keySuccessor(last)
		}
		// Progress guarantee: the descent's upper bound is
		// authoritative, so the cursor always moves past this leaf's
		// range before the next descent — a stale peer chain can cost
		// extra descents but never a livelock.
		cur = maxKeyBytes(cur, hi)

		// Fast path: follow trusted peer hops while they keep
		// yielding keys; fall back to a descent on any doubt.
		for {
			next, ok, err := t.trustedRightPeer(frame)
			frame.Unpin()
			if err != nil {
				return err
			}
			if !ok {
				break // outer loop re-descends at cur
			}
			t.obs.Count(obs.ChaseHop)
			frame = next
			done, last, err := emitLeaf(frame.Data, cur, end, fn)
			if err != nil {
				frame.Unpin()
				return err
			}
			if done {
				frame.Unpin()
				return nil
			}
			if last == nil {
				// A hop that yields nothing is suspicious (a
				// stale page or an emptied leaf): let the root
				// path decide where the scan really stands.
				frame.Unpin()
				break
			}
			cur = keySuccessor(last)
		}
	}
}

// trustedRightPeer follows frame's right peer pointer if the link passes
// the §3.5.1 token check and the target is safe to read without parent
// context. The returned frame is pinned.
func (t *Tree) trustedRightPeer(frame *buffer.Frame) (*buffer.Frame, bool, error) {
	p := frame.Data
	rp := p.RightPeer()
	if rp == 0 {
		return nil, false, nil
	}
	next, err := t.pool.Get(rp)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			// A quarantined peer is simply untrusted from the side path;
			// the root descent has the range context to report the skip.
			return nil, false, nil
		}
		return nil, false, err
	}
	ok := next.Data.Valid() && next.Data.Type() == page.TypeLeaf
	if ok && !(t.opts.DisablePeerCheck && t.protected()) {
		ok = next.Data.LeftPeerToken() == p.RightPeerToken() &&
			next.Data.LeftPeer() == frame.PageNo()
	}
	// A leaf still carrying pre-crash backup keys cannot be trusted from
	// the side path: its live key set may be only half the story (§3.4
	// cases (a)/(b)); route through the root so the descent resolves it.
	if ok && t.protected() && next.Data.PrevNKeys() != 0 &&
		next.Data.SyncToken() < t.counter.LastCrash() {
		ok = false
	}
	if ok && t.protected() && next.Data.FindDuplicateSlot() >= 0 {
		ok = false
	}
	if !ok {
		next.Unpin()
		return nil, false, nil
	}
	return next, true, nil
}

// emitLeaf streams the leaf's keys in [cur, end) to fn. done reports the
// scan is complete (fn stopped it or end was passed); last is the largest
// key emitted or inspected on this leaf.
func emitLeaf(p page.Page, cur, end []byte, fn func(key, value []byte) bool) (done bool, last []byte, err error) {
	pos, _, err := leafSearch(p, cur)
	if err != nil {
		return false, nil, err
	}
	for ; pos < p.NKeys(); pos++ {
		k, v, err := decodeLeafItem(p.Item(pos))
		if err != nil {
			return false, nil, err
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return true, last, nil
		}
		last = cloneBytes(k)
		if !fn(k, v) {
			return true, last, nil
		}
	}
	return false, last, nil
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
	metaFrame, rootFrame, rootNo, err := t.getRoot(true)
	if err != nil {
		return 0, err
	}
	metaFrame.Unpin()
	if rootNo == 0 {
		return 0, nil
	}
	h := int(rootFrame.Data.Level()) + 1
	rootFrame.Unpin()
	return h, nil
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
	cur := []byte{}
	for {
		path, err := t.descendPath(cur, true)
		if err != nil {
			return err
		}
		if path == nil {
			return nil
		}
		leaf := path[len(path)-1]
		// Run the insert-time peer verification too, so the peer
		// chain is fully reconciled (§3.5.1).
		if t.protected() && (!leaf.frame.Data.HasFlag(page.FlagPeerVerified) ||
			leaf.frame.Data.HasFlag(page.FlagPeerSuspect)) {
			if err := t.verifyPeerPath(&leaf); err != nil {
				releasePath(path)
				return err
			}
		}
		hi := cloneBytes(leaf.hi)
		releasePath(path)
		if hi == nil {
			return nil
		}
		cur = hi
	}
}
