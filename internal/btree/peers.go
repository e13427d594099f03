package btree

import (
	"bytes"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// §3.5.1: B-link trees have two paths to every leaf — root-to-leaf and the
// peer-pointer chain — and a crash can leave them disagreeing (Figure 3:
// the root path reaches the post-split page while the old peer path still
// threads through the pre-split duplicate). The duplicate is harmless until
// a key is added to or deleted from one of the copies, so before the first
// update of a leaf written before the most recent crash, the DBMS verifies
// the leaf is linked into the current peer-pointer path, repairing links by
// following the root-to-leaf path to the true neighbors. Once verified the
// page is recorded so subsequent updates skip the check — in memory, for
// this restart only: the next crash may lose the leaf's peer update, and a
// mark on the page would survive it.

// verifyPeerPath re-links the leaf at the bottom of path into the current
// peer chain. The true neighbors are found by fresh root-to-leaf descents
// on the leaf's range boundaries — the authoritative path — and every
// adjusted link gets a fresh shared sync token.
func (t *Tree) verifyPeerPath(leaf *pathEntry) error {
	p := leaf.frame.Data
	tok := t.counter.Current()
	changed := false
	suspect := p.HasFlag(page.FlagPeerSuspect)
	defer func() {
		if suspect || changed {
			leaf.frame.MarkDirty()
		}
	}()

	// Record the leaf and clear its suspect bit up front, so the cascade
	// below cannot revisit this page.
	t.proven.set(leaf.no)
	p.ClearFlag(page.FlagPeerSuspect)

	// The two descents below end, as a rule, at the pages the leaf's own peer
	// pointers name: start both reads now, so that the right neighbour
	// arrives while the left descent waits. Those pointers are what is being
	// verified and may name any page at all; a hint of one is advice.
	if len(leaf.lo) != 0 && p.LeftPeer() != 0 {
		t.pool.Hint(p.LeftPeer())
	}
	if leaf.hi != nil && p.RightPeer() != 0 {
		t.pool.Hint(p.RightPeer())
	}

	// A rebuilt neighbor may itself need verification before the chain
	// into this pair is sound — the paper walks the peer path in both
	// directions until a page with a different sync token appears; the
	// cascade below is that walk, driven by the suspect flag.
	var cascade []pathEntry

	// Left side: the true left neighbor holds the keys just below our
	// lower bound.
	if len(leaf.lo) == 0 {
		if p.LeftPeer() != 0 {
			p.SetLeftPeer(0)
			changed = true
		}
	} else {
		ln, err := t.repairedLeaf(leaf.lo, true)
		if err != nil {
			return err
		}
		if ln != nil {
			if ln.frame.Data.RightPeer() != leaf.no || p.LeftPeer() != ln.no ||
				ln.frame.Data.RightPeerToken() != p.LeftPeerToken() {
				ln.frame.Data.SetRightPeer(leaf.no)
				ln.frame.Data.SetRightPeerToken(tok)
				p.SetLeftPeer(ln.no)
				p.SetLeftPeerToken(tok)
				ln.frame.MarkDirty()
				changed = true
			}
			if ln.frame.Data.HasFlag(page.FlagPeerSuspect) {
				cascade = append(cascade, *ln)
			} else {
				ln.frame.Unpin()
			}
		}
	}

	// Right side: the true right neighbor covers our upper bound.
	if leaf.hi == nil {
		if p.RightPeer() != 0 {
			p.SetRightPeer(0)
			changed = true
		}
	} else {
		rn, err := t.repairedLeaf(leaf.hi, false)
		if err != nil {
			return err
		}
		if rn != nil && rn.no == leaf.no {
			rn.frame.Unpin() // the bound led back here: no neighbor to link
			rn = nil
		}
		if rn != nil {
			rf := rn.frame
			if rf.Data.LeftPeer() != leaf.no || p.RightPeer() != rn.no ||
				rf.Data.LeftPeerToken() != p.RightPeerToken() {
				rf.Data.SetLeftPeer(leaf.no)
				rf.Data.SetLeftPeerToken(tok)
				p.SetRightPeer(rn.no)
				p.SetRightPeerToken(tok)
				rf.MarkDirty()
				changed = true
			}
			if rf.Data.HasFlag(page.FlagPeerSuspect) {
				cascade = append(cascade, *rn)
			} else {
				rf.Unpin()
			}
		}
	}

	if changed {
		t.obs.Eventf(obs.RepairPeer, leaf.no, "peer chain re-linked via root-to-leaf descent (§3.5.1)")
	}
	for i := range cascade {
		err := t.verifyPeerPath(&cascade[i])
		cascade[i].frame.Unpin()
		if err != nil {
			return err
		}
	}
	return nil
}

// needsPeerVerify reports whether the §3.5.1 peer-path verification must
// run before updating the leaf in f: it was rebuilt by crash recovery (which
// restores peer links from a pre-split image), or it was last written before
// the most recent crash and is not yet known to be linked — neither proved
// by the restart walk (boundwalk.go) nor verified since. The caller holds
// the tree lock, which orders this read after verifyPeerPath's record.
func (t *Tree) needsPeerVerify(f *buffer.Frame) bool {
	p := f.Data
	if !t.protected() || p.Type() != page.TypeLeaf {
		return false
	}
	if p.HasFlag(page.FlagPeerSuspect) {
		return true
	}
	return p.SyncToken() < t.counter.LastCrash() && !t.proven.has(f.PageNo())
}

// repairedLeaf descends, repairing, to the leaf covering key — or, with
// pred, to the leaf holding the largest keys strictly below key (the left
// neighbor of the leaf whose range starts at key). It returns nil when no
// such leaf exists; otherwise the entry's frame is pinned, the caller must
// unpin it, and its bounds are its own.
func (t *Tree) repairedLeaf(key []byte, pred bool) (*pathEntry, error) {
	sc := getDescent()
	defer putDescent(sc)
	leaf, _, err := t.descend(descent{key: key, pred: pred, mode: repairing}, sc)
	if err != nil || leaf.frame == nil {
		return nil, err
	}
	leaf.lo, leaf.hi = cloneBytes(leaf.lo), cloneBytes(leaf.hi)
	return &leaf, nil
}

// internalSearchPred returns the largest entry whose separator is strictly
// below bound, or -1 if none.
func internalSearchPred(p page.Page, bound []byte) (int, error) {
	n := p.NKeys()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		sep, err := itemKey(p.Item(mid))
		if err != nil {
			return 0, err
		}
		if bytes.Compare(sep, bound) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}

// keySuccessor returns the smallest key greater than k.
func keySuccessor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}
