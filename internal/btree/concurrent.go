package btree

// This file holds the concurrency protocol of the paper's §3.6. Lookups,
// scans, AND inserts all run under the tree's shared lock; page access is
// ordered by per-frame latches (Lehman-Yao "locks"), splits serialize on the
// split lock (splitMu), and a structure-version seqlock tells readers when a
// split was in flight during their descent.
//
// Protocol summary:
//
//   - The descent (descend, search.go) holds at most one frame latch at a
//     time, pinning the child before releasing the parent
//     (pin-before-unlatch, §3.6). Because no reader ever waits for a latch
//     while holding one, and the single splitMu holder is the only thread
//     that holds several latches at once, latch acquisition is
//     deadlock-free.
//   - structVer is incremented to odd before the first page of a
//     structural change (split, root growth) is modified and back to even
//     after the last — always under splitMu. A shared operation snapshots
//     the version first; any *negative* result (key not found, a failed
//     range check) is authoritative only if the version is still the same
//     even value. Positive results need no validation: deletes are
//     exclusive, so a found key was definitely present at some instant of
//     the operation.
//   - There is one body per operation (lookup, scan, insert) and it runs in
//     whichever mode its caller is in. Under the shared lock it is
//     read-only: when validation fails it retries, and after
//     maxSharedRetries (or on genuine damage: a failed check with a stable
//     version) the caller takes the exclusive lock and runs the same body
//     once more in repairing mode, where the version cannot move, every
//     latch is uncontended, and what it returns is final. Repairs stay
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
	"errors"
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
	// maxSharedDepth bounds a descent; a deeper "tree" is a cycle left by
	// damage.
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

// beginStruct and endStruct bracket a structural change.
// Both are called with splitMu held, so the version is odd exactly
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

// pageErr is a body's answer to an item or page it could not decode. Under
// the shared lock that is one more failed validation to classify; in
// repairing mode the descent has already mended what it can, so the error
// stands. A duplicate key is an answer, not damage.
func (t *Tree) pageErr(mode descentMode, v uint64, err error) error {
	if mode == readOnly && !errors.Is(err, ErrDuplicateKey) {
		return t.classify(v)
	}
	return err
}

// hopRight is the one peer-hop rule (§3.5.1): it follows the right-peer
// link rp, read with its token rtok from leaf fromNo, and returns the peer
// pinned if it can be trusted without parent context — nil sends the caller
// back to the root, which has the range context to check, repair or report
// whatever is there. A link is trusted only while the tokens on its two
// ends agree; a quarantined or unreadable peer, a non-leaf, a leaf still
// carrying pre-crash backup keys (its live key set may be only half the
// story, §3.4 cases (a)/(b)) and one with duplicate line-table entries are
// not. held, if not nil, is fromNo's frame with its read latch still on: the
// peer is pinned before that latch drops (§3.6).
func (t *Tree) hopRight(fromNo, rp uint32, rtok uint64, held *buffer.Frame) *buffer.Frame {
	next, err := t.pool.Get(rp)
	if held != nil {
		held.RUnlatch()
	}
	if err != nil {
		return nil
	}
	next.RLatch()
	p := next.Data
	ok := p.Valid() && p.Type() == page.TypeLeaf
	if ok && !(t.opts.noPeerCheck && t.protected()) {
		ok = p.LeftPeer() == fromNo && p.LeftPeerToken() == rtok
	}
	ok = ok && !t.backupsPending(p) &&
		!(t.protected() && !p.HasFlag(page.FlagLineClean) && p.FindDuplicateSlot() >= 0)
	next.RUnlatch()
	if !ok {
		next.Unpin()
		return nil
	}
	t.obs.Count(obs.ChaseHop)
	return next
}
