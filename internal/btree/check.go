package btree

import (
	"bytes"
	"fmt"

	"repro/internal/page"
)

// CheckMode selects how strict an integrity check is.
type CheckMode int

const (
	// CheckStructure verifies page well-formedness, key order, level
	// monotonicity, and parent-prescribed key ranges along every
	// root-to-leaf path.
	CheckStructure CheckMode = iota
	// CheckStrict additionally verifies the leaf peer chain: the chain
	// visits exactly the leaves of the in-order walk, and every link's
	// sync tokens agree on both ends. A freshly recovered tree passes
	// CheckStructure immediately but may need RecoverAll before passing
	// CheckStrict, because peer links are repaired lazily (§3.5.1).
	CheckStrict
)

// Check walks the tree read-only — performing no repairs — and returns the
// first invariant violation found, or nil. Tests use it to prove that
// recovery restored a well-formed tree and that normal operation never
// degrades one.
func (t *Tree) Check(mode CheckMode) error {
	// Exclusive: inserts also run under the shared lock now, and a checker
	// racing a half-applied split would report phantom violations.
	if err := t.lockExclusive(); err != nil {
		return err
	}
	defer t.mu.Unlock()

	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	m := metaPage{metaFrame.Data}
	rootNo := m.root()
	rootToken := m.rootToken()
	metaFrame.Unpin()
	if rootNo == 0 {
		return nil
	}

	var leaves []uint32
	rootFrame, err := t.pool.Get(rootNo)
	if err != nil {
		return err
	}
	if t.protected() && rootFrame.Data.SyncToken() != rootToken {
		rootFrame.Unpin()
		return fmt.Errorf("root %d sync token %d != meta root token %d",
			rootNo, rootFrame.Data.SyncToken(), rootToken)
	}
	level := rootFrame.Data.Level()
	rootFrame.Unpin()
	if err := t.checkSubtree(rootNo, level, nil, nil, &leaves); err != nil {
		return err
	}
	if mode == CheckStrict {
		return t.checkPeerChain(leaves)
	}
	return nil
}

func (t *Tree) checkSubtree(no uint32, level uint8, lo, hi []byte, leaves *[]uint32) error {
	f, err := t.pool.Get(no)
	if err != nil {
		return err
	}
	defer f.Unpin()
	p := f.Data

	if p.IsZeroed() {
		return fmt.Errorf("page %d: zeroed (lost in a crash, unrepaired)", no)
	}
	if err := p.CheckLineTable(); err != nil {
		return fmt.Errorf("page %d: %w", no, err)
	}
	if d := p.FindDuplicateSlot(); d >= 0 {
		return fmt.Errorf("page %d: duplicate line-table entry at %d", no, d)
	}
	if p.Level() != level {
		return fmt.Errorf("page %d: level %d, expected %d", no, p.Level(), level)
	}
	wantType := page.TypeLeaf
	if level > 0 {
		wantType = page.TypeInternal
	}
	if p.Type() != wantType {
		return fmt.Errorf("page %d: type %v, expected %v", no, p.Type(), wantType)
	}
	if shadow := t.pageIsShadow(level); shadow != p.HasFlag(page.FlagShadow) {
		return fmt.Errorf("page %d: shadow flag %v, expected %v", no, p.HasFlag(page.FlagShadow), shadow)
	}

	// Keys sorted strictly ascending and inside [lo,hi).
	var prevKey []byte
	for i := 0; i < p.NKeys(); i++ {
		k, err := itemKey(p.Item(i))
		if err != nil {
			return fmt.Errorf("page %d item %d: %w", no, i, err)
		}
		if prevKey != nil && bytes.Compare(prevKey, k) >= 0 {
			return fmt.Errorf("page %d: keys out of order at %d (%q >= %q)", no, i, prevKey, k)
		}
		// The leftmost separator of an internal page is a lower
		// boundary, possibly empty; real keys must sit in range.
		if !(level > 0 && i == 0) && !keyInRange(k, lo, hi) {
			return fmt.Errorf("page %d: key %q outside prescribed range [%q,%q)", no, k, lo, hi)
		}
		prevKey = append(prevKey[:0], k...)
	}

	if level == 0 {
		*leaves = append(*leaves, no)
		return nil
	}
	if p.NKeys() == 0 {
		return fmt.Errorf("internal page %d: empty", no)
	}
	for i := 0; i < p.NKeys(); i++ {
		it, err := internalEntry(p, i)
		if err != nil {
			return fmt.Errorf("page %d entry %d: %w", no, i, err)
		}
		cLo, cHi, err := childRange(p, i, lo, hi)
		if err != nil {
			return err
		}
		if err := t.checkSubtree(it.child, level-1, cLo, cHi, leaves); err != nil {
			return err
		}
	}
	return nil
}

// checkPeerChain verifies the doubly linked leaf chain against the in-order
// leaf list from the structural walk, including the per-link token
// agreement of §3.5.1.
func (t *Tree) checkPeerChain(leaves []uint32) error {
	for i, no := range leaves {
		f, err := t.pool.Get(no)
		if err != nil {
			return err
		}
		p := f.Data
		var wantLeft, wantRight uint32
		if i > 0 {
			wantLeft = leaves[i-1]
		}
		if i+1 < len(leaves) {
			wantRight = leaves[i+1]
		}
		if p.LeftPeer() != wantLeft {
			f.Unpin()
			return fmt.Errorf("leaf %d: left peer %d, expected %d", no, p.LeftPeer(), wantLeft)
		}
		if p.RightPeer() != wantRight {
			f.Unpin()
			return fmt.Errorf("leaf %d: right peer %d, expected %d", no, p.RightPeer(), wantRight)
		}
		if wantRight != 0 {
			rf, err := t.pool.Get(wantRight)
			if err != nil {
				f.Unpin()
				return err
			}
			if p.RightPeerToken() != rf.Data.LeftPeerToken() {
				rf.Unpin()
				f.Unpin()
				return fmt.Errorf("leaf %d -> %d: peer tokens disagree (%d vs %d)",
					no, wantRight, p.RightPeerToken(), rf.Data.LeftPeerToken())
			}
			rf.Unpin()
		}
		f.Unpin()
	}
	return nil
}

// ReachablePages returns the set of pages reachable from the meta page:
// the root-to-leaf structure plus, for bookkeeping, the meta page itself.
// The vacuum treats everything else in the file as garbage to reclaim
// (§3.3.3: freelist regeneration is a garbage-collection task).
func (t *Tree) ReachablePages() (map[uint32]bool, error) {
	// Exclusive for the same reason as Check: shared mode admits writers.
	if err := t.lockExclusive(); err != nil {
		return nil, err
	}
	defer t.mu.Unlock()
	reach, err := t.walkReachable(nil)
	if err != nil {
		return nil, err
	}
	reach[0] = true
	return reach, nil
}

// walkReachable visits every page reachable from the root once, parent
// before children, and returns the set it visited. visit, if not nil, gets
// each page's number and the key range [lo, hi) its parent gives it (nil is
// unbounded); lo and hi are valid only during the call. A read error, a
// malformed internal entry or a page that is neither leaf nor internal stops
// the walk. The caller holds the tree exclusively.
func (t *Tree) walkReachable(visit func(no uint32, lo, hi []byte)) (map[uint32]bool, error) {
	seen := map[uint32]bool{}
	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return nil, err
	}
	rootNo := metaPage{metaFrame.Data}.root()
	metaFrame.Unpin()
	if rootNo == 0 {
		return seen, nil
	}
	var walk func(no uint32, lo, hi []byte) error
	walk = func(no uint32, lo, hi []byte) error {
		if seen[no] {
			return nil
		}
		seen[no] = true
		f, err := t.pool.Get(no)
		if err != nil {
			return err
		}
		defer f.Unpin()
		f.RLatch()
		defer f.RUnlatch()
		if visit != nil {
			visit(no, lo, hi)
		}
		p := f.Data
		switch p.Type() {
		case page.TypeLeaf:
			return nil
		case page.TypeInternal:
		default:
			return fmt.Errorf("%w: page %d has type %v", ErrUnrecoverable, no, p.Type())
		}
		for i := 0; i < p.NKeys(); i++ {
			e, err := internalEntry(p, i)
			if err != nil {
				return err
			}
			cLo, cHi, err := childRange(p, i, lo, hi)
			if err != nil {
				return err
			}
			if err := walk(e.child, cLo, cHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(rootNo, nil, nil); err != nil {
		return nil, err
	}
	return seen, nil
}

// NumPages reports the current size of the index file in pages: the file's
// own size while the allocation bound is unknown (the bound walk failed).
func (t *Tree) NumPages() uint32 {
	n := t.pool.Disk().NumPages()
	if err := t.awaitBound(); err == nil && t.nextNew > n {
		return t.nextNew
	}
	return n
}
