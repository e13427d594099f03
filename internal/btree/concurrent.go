package btree

// This file implements the shared-mode operation paths of the paper's §3.6
// concurrency protocol. Lookups, scans, AND inserts all run under the
// tree's shared lock; page access is ordered by per-frame latches
// (Lehman-Yao "locks"), splits serialize on the split lock (splitMu), and
// a structure-version seqlock tells readers when a split was in flight
// during their descent.
//
// Protocol summary:
//
//   - Descents hold at most one frame latch at a time, pinning the child
//     before releasing the parent (pin-before-unlatch, §3.6). Because no
//     reader ever waits for a latch while holding one, and the single
//     splitMu holder is the only thread that holds several latches at
//     once, latch acquisition is deadlock-free.
//   - structVer is incremented to odd before the first page of a
//     structural change (split, root growth) is modified and back to even
//     after the last — always under splitMu. A shared operation snapshots
//     the version first; any *negative* result (key not found, a failed
//     range check) is authoritative only if the version is still the same
//     even value. Positive results need no validation: deletes are
//     exclusive, so a found key was definitely present at some instant of
//     the operation.
//   - When validation fails the operation retries; after maxSharedRetries
//     (or on genuine damage: a failed check with a stable version) it
//     falls back to the exclusive path, which owns repairs. Repairs stay
//     exclusive exactly as the paper allows — recovery code may assume a
//     quiescent tree.
//   - A lookup racing a split may land on a page whose keys just moved
//     right; it chases trusted right-peer links (§3.5.1 token-checked, the
//     B-link "move right" of Lehman-Yao) before giving up and retrying.
//
// Latch ordering: tree lock → splitMu → frame latch → pool partition
// mutex. The splitMu holder must never block on splitMu (trivially true)
// and no thread acquires splitMu while holding a frame latch; syncs
// (which flush under shared frame latches) run latch-free.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

var (
	// errRetryShared reports a transient inconsistency caused by a
	// concurrent structural change: retry the shared path.
	errRetryShared = errors.New("btree: concurrent structural change, retry")
	// errNeedsExclusive reports that the operation must re-run under the
	// exclusive tree lock (repairs, empty-tree initialization, blocked
	// syncs discovered while holding a frame latch).
	errNeedsExclusive = errors.New("btree: operation requires exclusive mode")
)

const (
	// maxSharedRetries bounds optimistic retries before an operation
	// falls back to the exclusive lock.
	maxSharedRetries = 16
	// maxChaseHops bounds the §3.6 right-link chase of a lookup racing a
	// split.
	maxChaseHops = 4
	// maxSharedDepth bounds a shared descent; a deeper "tree" is a cycle
	// left by damage and is handed to the exclusive path.
	maxSharedDepth = 64
)

// retryBackoff pauses between optimistic shared-mode retries. Early
// attempts just yield; later ones sleep briefly with a growing bound — a
// split holds the structure version odd across real page I/O, so a pure
// spin exhausts its retry budget (and convoys every operation into the
// exclusive lock) long before the split can possibly finish.
func retryBackoff(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(attempt-3) * 20 * time.Microsecond)
}

// beginStruct and endStruct bracket a structural change made in shared
// mode. Both are called with splitMu held, so the version is odd exactly
// while a split is reorganizing pages.
func (t *Tree) beginStruct() { t.structVer.Add(1) }
func (t *Tree) endStruct()   { t.structVer.Add(1) }

// structStable reports whether v is an even (no split in flight) version
// that still matches the current one: any negative result observed under
// it is authoritative.
func (t *Tree) structStable(v uint64) bool {
	return v%2 == 0 && t.structVer.Load() == v
}

// classify converts a failed shared-mode validation into the right
// sentinel: a stable version means the inconsistency is genuine (crash
// damage) and needs the exclusive repair path; otherwise a concurrent
// split explains it and a retry suffices.
func (t *Tree) classify(v uint64) error {
	if t.structStable(v) {
		return errNeedsExclusive
	}
	return errRetryShared
}

// sharedPageOK runs the read-only versions of the descent-time checks on a
// latched page: the §3.3.1 shape checks, the §3.3.2 intra-page duplicate
// detection (without the FlagLineClean caching, which would mutate the
// page), and the §3.4 pre-crash backup check. isRoot selects the root
// validation (token vs. the meta page) instead of the parent range check.
func (t *Tree) sharedPageOK(p page.Page, isRoot bool, rootTok uint64, level int, lo, hi []byte) bool {
	if t.protected() && !t.opts.DisableRangeCheck {
		t.Stats.RangeChecks.Add(1)
		if isRoot {
			if p.IsZeroed() || !p.Valid() || p.SyncToken() != rootTok {
				return false
			}
		} else {
			if level < 0 {
				return false
			}
			ok, err := t.childConsistent(p, uint8(level), lo, hi)
			if err != nil || !ok {
				return false
			}
		}
	} else if p.IsZeroed() || !p.Valid() {
		// Even unprotected trees need shape validation in shared mode: a
		// stale pointer can reach a freed or recycled page mid-split.
		return false
	}
	if t.protected() && !p.HasFlag(page.FlagLineClean) && p.FindDuplicateSlot() >= 0 {
		return false
	}
	if t.protected() && p.PrevNKeys() != 0 && p.SyncToken() < t.counter.LastCrash() {
		// Pre-crash backup keys need resolution — a repair.
		return false
	}
	return true
}

// descendSharedLeaf walks root-to-leaf holding one latch at a time and
// returns the pinned (unlatched) leaf covering key with its range bounds.
// The bounds are staged in sc and alias its buffers: they are valid until
// the caller releases the scratch, and must be cloned to outlive it.
// empty reports an empty tree. Validation failures are classified against
// version v.
func (t *Tree) descendSharedLeaf(key []byte, v uint64, sc *descentScratch) (leaf *buffer.Frame, lo, hi []byte, empty bool, err error) {
	mf, err := t.pool.Get(0)
	if err != nil {
		return nil, nil, nil, false, err
	}
	mf.RLatch()
	m := metaPage{mf.Data}
	rootNo, rootTok := m.root(), m.rootToken()
	if rootNo == 0 {
		mf.RUnlatch()
		mf.Unpin()
		return nil, nil, nil, true, nil
	}
	f, gerr := t.pool.Get(rootNo) // pin the child before releasing the parent's latch
	mf.RUnlatch()
	mf.Unpin()
	if gerr != nil {
		return nil, nil, nil, false, gerr
	}
	isRoot := true
	level := -1
	for depth := 0; depth < maxSharedDepth; depth++ {
		f.RLatch()
		p := f.Data
		if !t.sharedPageOK(p, isRoot, rootTok, level, lo, hi) {
			f.RUnlatch()
			f.Unpin()
			return nil, nil, nil, false, t.classify(v)
		}
		if p.Type() == page.TypeLeaf {
			f.RUnlatch()
			return f, lo, hi, false, nil
		}
		if p.Type() != page.TypeInternal {
			f.RUnlatch()
			f.Unpin()
			return nil, nil, nil, false, t.classify(v)
		}
		idx, serr := internalSearch(p, key)
		if serr != nil || idx < 0 {
			f.RUnlatch()
			f.Unpin()
			return nil, nil, nil, false, t.classify(v)
		}
		it, ierr := internalEntry(p, idx)
		if ierr != nil {
			f.RUnlatch()
			f.Unpin()
			return nil, nil, nil, false, t.classify(v)
		}
		cLo, cHi, rerr := childRange(p, idx, lo, hi)
		if rerr != nil {
			f.RUnlatch()
			f.Unpin()
			return nil, nil, nil, false, t.classify(v)
		}
		// childRange returns slices into the latched page (or the bounds
		// staged at the previous level): stage into the scratch's other
		// buffer pair before the latch drops.
		cLo, cHi = sc.stage(cLo, cHi)
		level = int(p.Level()) - 1
		child, gerr := t.pool.Get(it.child) // pin-before-unlatch
		f.RUnlatch()
		f.Unpin()
		if gerr != nil {
			return nil, nil, nil, false, gerr
		}
		f = child
		lo, hi = cLo, cHi
		isRoot = false
	}
	f.Unpin()
	return nil, nil, nil, false, t.classify(v)
}

// trustedPeerHopOK validates, on the latched target page, a right-peer
// link followed from page fromNo whose right-peer token was fromTok
// (§3.5.1: a link is trusted only while the tokens on its two ends agree).
func (t *Tree) trustedPeerHopOK(p page.Page, fromNo uint32, fromTok uint64) bool {
	if !p.Valid() || p.Type() != page.TypeLeaf {
		return false
	}
	if !(t.opts.DisablePeerCheck && t.protected()) {
		if p.LeftPeer() != fromNo || p.LeftPeerToken() != fromTok {
			return false
		}
	}
	if t.protected() && p.PrevNKeys() != 0 && p.SyncToken() < t.counter.LastCrash() {
		return false
	}
	if t.protected() && !p.HasFlag(page.FlagLineClean) && p.FindDuplicateSlot() >= 0 {
		return false
	}
	return true
}

// lookupShared is the shared-mode lookup body: one latched descent, a
// latched leaf search, and — when a concurrent split may have moved the
// key right — a bounded trusted-peer chase before retrying. On a hit the
// value is appended to dst (which may be nil), so a caller recycling its
// buffer pays no allocation.
func (t *Tree) lookupShared(key, dst []byte, v uint64) ([]byte, error) {
	sc := getDescent()
	defer putDescent(sc)
	f, _, _, empty, err := t.descendSharedLeaf(key, v, sc)
	if err != nil {
		return nil, err
	}
	if empty {
		if t.structStable(v) {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		return nil, errRetryShared
	}
	curNo := f.PageNo()
	for hop := 0; ; hop++ {
		f.RLatch()
		p := f.Data
		pos, found, serr := leafSearch(p, key)
		if serr != nil {
			f.RUnlatch()
			f.Unpin()
			return nil, t.classify(v)
		}
		if found {
			_, val, derr := decodeLeafItem(p.Item(pos))
			if derr != nil {
				f.RUnlatch()
				f.Unpin()
				return nil, t.classify(v)
			}
			out := append(dst, val...)
			f.RUnlatch()
			f.Unpin()
			return out, nil // positive results are authoritative
		}
		if t.structStable(v) {
			f.RUnlatch()
			f.Unpin()
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		// The structure moved under us. If the key sorts past this
		// page's largest key a split may have carried it right: chase
		// the peer link while the §3.5.1 tokens vouch for it.
		if hop >= maxChaseHops || p.NKeys() == 0 || pos < p.NKeys() {
			f.RUnlatch()
			f.Unpin()
			return nil, errRetryShared
		}
		rp, rtok := p.RightPeer(), p.RightPeerToken()
		if rp == 0 {
			f.RUnlatch()
			f.Unpin()
			return nil, errRetryShared
		}
		nf, gerr := t.pool.Get(rp) // pin-before-unlatch
		f.RUnlatch()
		f.Unpin()
		if gerr != nil {
			return nil, gerr
		}
		nf.RLatch()
		ok := t.trustedPeerHopOK(nf.Data, curNo, rtok)
		nf.RUnlatch()
		if !ok {
			nf.Unpin()
			return nil, errRetryShared
		}
		t.obs.Count(obs.ChaseHop)
		curNo, f = rp, nf
	}
}

// insertShared is the shared-mode insert fast path: latched descent, then
// the whole leaf update under the leaf's write latch. Structural work
// (splits) and anything touching repair or blocked syncs is delegated.
func (t *Tree) insertShared(key, value []byte, v uint64) error {
	sc := getDescent()
	defer putDescent(sc)
	f, _, _, empty, err := t.descendSharedLeaf(key, v, sc)
	if err != nil {
		return err
	}
	if empty {
		return errNeedsExclusive // createRootLeaf initializes meta state
	}
	f.WLatch()
	if !t.structStable(v) {
		// The leaf's identity came from a descent the structure has since
		// outrun; re-descend rather than reason about stale bounds.
		f.WUnlatch()
		f.Unpin()
		return errRetryShared
	}
	// From here the leaf cannot change under us: leaf inserts need this
	// write latch, splits latch the leaf before reading it, and deletes
	// are exclusive.
	p := f.Data
	if t.needsPeerVerify(p) {
		f.WUnlatch()
		f.Unpin()
		return errNeedsExclusive // §3.5.1 verification repairs peer links
	}
	if _, found, serr := leafSearch(p, key); serr != nil {
		f.WUnlatch()
		f.Unpin()
		return t.classify(v)
	} else if found {
		f.WUnlatch()
		f.Unpin()
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	if p.PrevNKeys() != 0 {
		if t.protected() && p.SyncToken() == t.counter.Current() {
			// §3.4 reclaim case (1): the page needs a blocked sync, which
			// must not run while a frame latch is held. insertSplitShared
			// runs the sync under splitMu with the tree lock still shared,
			// so inserts and lookups on other leaves keep flowing — going
			// exclusive here would convoy every shared op behind a full
			// pool flush each time a freshly split leaf is touched again.
			f.WUnlatch()
			f.Unpin()
			return t.insertSplitShared(key, value)
		}
		reclaimBackups(p)
		f.MarkDirty()
		if t.protected() {
			t.Stats.BackupReclaims.Add(1)
			t.obs.Count(obs.BackupReclaim)
		}
	}
	if p.CanFit(leafItemLen(key, value)) {
		if ierr := insertLeaf(p, key, value); ierr != nil {
			f.WUnlatch()
			f.Unpin()
			return t.classify(v)
		}
		f.MarkDirty()
		f.WUnlatch()
		f.Unpin()
		return nil
	}
	f.WUnlatch()
	f.Unpin()
	return t.insertSplitShared(key, value)
}

// descendSharedPath is the full-path variant of descendSharedLeaf, used
// under splitMu where the caller needs parent frames and indices for the
// split. With splitMu held no structural change is in flight, so any
// validation failure is genuine damage. A nil path means an empty tree.
func (t *Tree) descendSharedPath(key []byte) ([]pathEntry, error) {
	mf, err := t.pool.Get(0)
	if err != nil {
		return nil, err
	}
	mf.RLatch()
	m := metaPage{mf.Data}
	rootNo, rootTok := m.root(), m.rootToken()
	if rootNo == 0 {
		mf.RUnlatch()
		mf.Unpin()
		return nil, nil
	}
	rf, gerr := t.pool.Get(rootNo)
	mf.RUnlatch()
	mf.Unpin()
	if gerr != nil {
		return nil, gerr
	}
	path := append(newPath(), pathEntry{no: rootNo, frame: rf, idx: -1})
	isRoot := true
	level := -1
	for depth := 0; depth < maxSharedDepth; depth++ {
		cur := &path[len(path)-1]
		cur.frame.RLatch()
		p := cur.frame.Data
		if !t.sharedPageOK(p, isRoot, rootTok, level, cur.lo, cur.hi) {
			cur.frame.RUnlatch()
			releasePath(path)
			return nil, errNeedsExclusive
		}
		if p.Type() == page.TypeLeaf {
			cur.frame.RUnlatch()
			return path, nil
		}
		if p.Type() != page.TypeInternal {
			cur.frame.RUnlatch()
			releasePath(path)
			return nil, errNeedsExclusive
		}
		idx, serr := internalSearch(p, key)
		if serr != nil || idx < 0 {
			cur.frame.RUnlatch()
			releasePath(path)
			return nil, errNeedsExclusive
		}
		it, ierr := internalEntry(p, idx)
		if ierr != nil {
			cur.frame.RUnlatch()
			releasePath(path)
			return nil, errNeedsExclusive
		}
		cLo, cHi, rerr := childRange(p, idx, cur.lo, cur.hi)
		if rerr != nil {
			cur.frame.RUnlatch()
			releasePath(path)
			return nil, errNeedsExclusive
		}
		cLo, cHi = cloneBytes(cLo), cloneBytes(cHi)
		level = int(p.Level()) - 1
		cur.idx = idx
		child, cerr := t.pool.Get(it.child) // pin-before-unlatch
		cur.frame.RUnlatch()
		if cerr != nil {
			releasePath(path)
			return nil, cerr
		}
		path = append(path, pathEntry{no: it.child, frame: child, lo: cLo, hi: cHi, idx: -1})
		isRoot = false
	}
	releasePath(path)
	return nil, errNeedsExclusive
}

// insertSplitShared performs a shared-mode insert whose leaf is full: it
// takes the split lock, re-descends (pinning the whole path), re-validates
// the leaf under its write latch, and runs the split with the structure
// version held odd so concurrent negative results are retried.
func (t *Tree) insertSplitShared(key, value []byte) error {
	t.splitMu.Lock()
	defer t.splitMu.Unlock()

	path, err := t.descendSharedPath(key)
	if err != nil {
		return err
	}
	if path == nil {
		return errNeedsExclusive
	}
	defer releasePath(path)
	leafDepth := len(path) - 1
	leaf := &path[leafDepth]
	lf := leaf.frame

	lf.WLatch()
	if t.needsPeerVerify(lf.Data) {
		lf.WUnlatch()
		return errNeedsExclusive
	}
	if _, found, serr := leafSearch(lf.Data, key); serr != nil {
		lf.WUnlatch()
		return errNeedsExclusive
	} else if found {
		lf.WUnlatch()
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	// §3.4 reclaim. The blocked sync of case (1) runs with the latch
	// dropped — syncs flush pages under their shared latches.
	if t.protected() && lf.Data.PrevNKeys() != 0 && lf.Data.SyncToken() == t.counter.Current() {
		lf.WUnlatch()
		t.Stats.BlockedSyncs.Add(1)
		t.obs.Eventf(obs.BlockedSync, leaf.no, "reclaim case 1: backups not yet durable; forcing sync")
		if err := t.syncLocked(); err != nil {
			return err
		}
		lf.WLatch()
	}
	if lf.Data.PrevNKeys() != 0 {
		reclaimBackups(lf.Data)
		lf.MarkDirty()
		if t.protected() {
			t.Stats.BackupReclaims.Add(1)
			t.obs.Count(obs.BackupReclaim)
		}
	}
	if lf.Data.CanFit(leafItemLen(key, value)) {
		// Reclaiming backups (or a racing delete — impossible, they are
		// exclusive — or simply a stale fullness observation) made room.
		ierr := insertLeaf(lf.Data, key, value)
		if ierr == nil {
			lf.MarkDirty()
		}
		lf.WUnlatch()
		if ierr != nil {
			return errNeedsExclusive
		}
		return nil
	}
	lf.WUnlatch()

	// Structural change begins: hold the version odd until the new halves
	// are linked into the parent.
	t.beginStruct()
	defer t.endStruct()

	promo, err := t.splitPage(path, leafDepth, key)
	if err != nil {
		return err
	}
	targetNo := promo.lowNo
	if bytes.Compare(key, promo.sep) >= 0 {
		targetNo = promo.highNo
	}
	tf, err := t.pool.Get(targetNo)
	if err != nil {
		return err
	}
	tf.WLatch()
	// Re-check for a duplicate: a same-key insert with a smaller value
	// can slip into the half through the fast path between our latch
	// windows.
	_, found, serr := leafSearch(tf.Data, key)
	if serr != nil {
		tf.WUnlatch()
		tf.Unpin()
		return errNeedsExclusive
	}
	if found {
		tf.WUnlatch()
		tf.Unpin()
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	ierr := insertLeaf(tf.Data, key, value)
	if ierr == nil {
		tf.MarkDirty()
	}
	tf.WUnlatch()
	tf.Unpin()
	if ierr != nil {
		return ierr
	}
	return nil
}

// scanShared is the shared-mode scan body: each leaf's pairs are copied out
// under its latch, validated against the structure version, and only then
// emitted — so fn never sees data from a half-split state. Between the two
// stands ahead, if the caller installed one: it is shown the leaf's pairs and
// may start the reads fn is about to need, and when it expects the scan to
// outrun this leaf the right peer is hinted to the pool, to be read while fn
// works. A hint has no effect but that (buffer.Pool.Hint), so a stale peer
// pointer is as harmless here as in the hop below, which validates what it
// finds. scanShared returns the cursor at which an exclusive-mode scan should
// resume when err is one of the fallback sentinels.
func (t *Tree) scanShared(start, end []byte, ahead LookAhead, fn func(key, value []byte) bool) ([]byte, error) {
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
		leaf, _, hi, empty, err := t.descendSharedLeaf(cur, v, sc)
		// The cursor advance below persists hi past this iteration's
		// descent, so detach it from the scratch before recycling.
		hi = cloneBytes(hi)
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
		if empty {
			if t.structStable(v) {
				return cur, nil
			}
			if rerr := retry(); rerr != nil {
				return cur, rerr
			}
			continue
		}

		frame, curNo := leaf, leaf.PageNo()
		fromDescent := true
		redescend := false
		for !redescend {
			frame.RLatch()
			buf = buf[:0]
			done, cerr := collect(frame.Data)
			rp, rtok := frame.Data.RightPeer(), frame.Data.RightPeerToken()
			frame.RUnlatch()
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
				fromDescent = false
			} else if len(buf) == 0 {
				// A peer hop that yields nothing is suspicious (an
				// emptied or stale leaf): let the root path decide
				// where the scan really stands.
				frame.Unpin()
				redescend = true
				break
			}
			if rp == 0 {
				frame.Unpin()
				redescend = true
				break
			}
			next, gerr := t.pool.Get(rp)
			frame.Unpin()
			if gerr != nil {
				return cur, gerr
			}
			next.RLatch()
			ok := t.trustedPeerHopOK(next.Data, curNo, rtok)
			next.RUnlatch()
			if !ok {
				next.Unpin()
				redescend = true
				break
			}
			t.obs.Count(obs.ChaseHop)
			frame, curNo = next, rp
		}
	}
}
