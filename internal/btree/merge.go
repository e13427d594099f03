package btree

import (
	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// Page merging. The paper handles splits in detail and notes (citing Lanin
// & Shasha) that merges are their mirror image; POSTGRES deferred them to
// the vacuum rather than doing them inline, and so does this reproduction:
// MergeUnderfull is an offline pass invoked by the garbage collector.
//
// The crash-safety protocol differs from the split's because a merged page
// has TWO predecessors and the key-range check cannot detect a missing
// subset (a half-empty page still passes). The protocol makes the parent
// update atomic and the merged page durable BEFORE it is referenced:
//
//  1. Build the merged page M on a fresh page and SYNC. M is a durable
//     orphan: a crash now leaves the old tree untouched.
//  2. Update the parent in one page image: redirect K1's child to M (with
//     K1.prev := M for shadow levels — M is itself the durable pre-image
//     now) and delete K2 with the careful line-table protocol. Single-page
//     writes are atomic (§2), so a crash persists either the old parent
//     (old tree, M leaks until the next vacuum) or the new one (merged
//     tree, A and B leak until freed).
//  3. Queue A and B for the freelist after the next sync.

// MergeThreshold is the fill fraction below which two adjacent siblings
// are merged when their combined contents fit on one page.
const MergeThreshold = 0.25

// MergeStats reports what a merge pass did.
type MergeStats struct {
	Examined int
	Merged   int
	Syncs    int
}

// MergeUnderfull walks the tree bottom-up once and merges adjacent sibling
// pairs (same parent) whose combined items fit comfortably on one page.
// The tree must be quiescent; every merge costs one sync, which is why this
// is vacuum work and not inline work.
func (t *Tree) MergeUnderfull() (MergeStats, error) {
	var st MergeStats
	if err := t.lockExclusive(); err != nil {
		return st, err
	}
	defer t.mu.Unlock()

	// Walk parents of leaves first, then upper levels, re-descending
	// after each merge because the structure changes underneath.
	for level := uint8(0); ; level++ {
		merged, examined, err := t.mergeLevelLocked(level, &st)
		st.Examined += examined
		if err != nil {
			return st, err
		}
		h, err := t.heightLocked()
		if err != nil {
			return st, err
		}
		if int(level)+1 >= h {
			break
		}
		_ = merged
	}
	if err := t.collapseRootLocked(&st); err != nil {
		return st, err
	}
	return st, nil
}

// collapseRootLocked shrinks the tree while the root is an internal page
// with a single entry: after a sync (so the child is durable) the meta
// page swings the root pointer to the child in one atomic page write,
// exactly like the merge's parent update.
func (t *Tree) collapseRootLocked(st *MergeStats) error {
	for {
		_, path, err := t.descend(descent{key: []byte{}, mode: repairing, path: true}, nil)
		if err != nil {
			return err
		}
		if len(path) < 2 || path[0].frame.Data.NKeys() != 1 || path[0].frame.Data.PrevNKeys() != 0 {
			releasePath(path)
			return nil
		}
		root, child := path[0], path[1]
		// Make sure the child is durable before the meta references it
		// as the root.
		if !t.durable(child.frame.Data.SyncToken()) {
			if err := t.syncLocked(); err != nil {
				releasePath(path)
				return err
			}
			st.Syncs++
		}
		metaFrame, err := t.pool.Get(0)
		if err != nil {
			releasePath(path)
			return err
		}
		m := metaPage{metaFrame.Data}
		m.setPrevRoot(root.no)
		m.setRoot(child.no)
		m.setRootToken(child.frame.Data.SyncToken())
		metaFrame.MarkDirty()
		metaFrame.Unpin()
		t.freeAfterSync(root.no, nil, nil)
		releasePath(path)
	}
}

// heightLocked counts the levels on the leftmost root-to-leaf path.
func (t *Tree) heightLocked() (int, error) {
	_, path, err := t.descend(descent{key: []byte{}, mode: repairing, path: true}, nil)
	h := len(path)
	releasePath(path)
	return h, err
}

// mergeLevelLocked merges underfull adjacent pairs among children at the
// given level. It walks by key range, re-descending after every merge.
func (t *Tree) mergeLevelLocked(level uint8, st *MergeStats) (int, int, error) {
	mergedTotal, examined := 0, 0
	cur := []byte{}
	for {
		path, err := t.descendToLevel(cur, level+1)
		if err != nil {
			return mergedTotal, examined, err
		}
		if path == nil {
			return mergedTotal, examined, nil
		}
		parent := path[len(path)-1]
		if parent.frame.Data.Level() != level+1 {
			// The tree is shorter than this level pair; done.
			releasePath(path)
			return mergedTotal, examined, nil
		}
		didMerge, err := t.mergeWithinParent(&parent, st)
		if err != nil {
			releasePath(path)
			return mergedTotal, examined, err
		}
		examined++
		if didMerge {
			mergedTotal++
			// Re-descend: the parent changed. Stay on the same
			// range so chains of small pages collapse fully.
			releasePath(path)
			continue
		}
		hi := cloneBytes(parent.hi)
		releasePath(path)
		if hi == nil {
			return mergedTotal, examined, nil
		}
		cur = hi
	}
}

// descendToLevel descends toward key but stops at the given level.
func (t *Tree) descendToLevel(key []byte, level uint8) ([]pathEntry, error) {
	_, path, err := t.descend(descent{key: key, mode: repairing, path: true}, nil)
	if err != nil || path == nil {
		return nil, err
	}
	// Trim the path back to the requested level if present.
	for i, e := range path {
		if e.frame.Data.Level() == level {
			for _, rest := range path[i+1:] {
				rest.frame.Unpin()
			}
			return path[:i+1], nil
		}
	}
	return path, nil
}

// mergeWithinParent merges the first eligible adjacent pair under the
// parent; returns true if a merge happened.
func (t *Tree) mergeWithinParent(parent *pathEntry, st *MergeStats) (bool, error) {
	pp := parent.frame.Data
	if pp.Type() != page.TypeInternal || pp.NKeys() < 2 {
		return false, nil
	}
	threshold := int(float64(page.Size-page.HeaderSize) * MergeThreshold)
	for i := 0; i+1 < pp.NKeys(); i++ {
		aIt, err := internalEntry(pp, i)
		if err != nil {
			return false, err
		}
		bIt, err := internalEntry(pp, i+1)
		if err != nil {
			return false, err
		}
		aF, err := t.pool.Get(aIt.child)
		if err != nil {
			return false, err
		}
		bF, err := t.pool.Get(bIt.child)
		if err != nil {
			aF.Unpin()
			return false, err
		}
		// Measure LIVE content: deletions leave dead item bytes on the
		// page (reclaimed only by Compact), so raw free space
		// undercounts how empty a page really is.
		aUsed := liveBytes(aF.Data)
		bUsed := liveBytes(bF.Data)
		small := aUsed < threshold || bUsed < threshold
		combinedFit := aUsed+bUsed < (page.Size-page.HeaderSize)*3/4
		eligible := small && combinedFit &&
			aF.Data.PrevNKeys() == 0 && bF.Data.PrevNKeys() == 0 &&
			aF.Data.Valid() && bF.Data.Valid()
		if !eligible {
			aF.Unpin()
			bF.Unpin()
			continue
		}
		err = t.mergePair(parent, i, aIt, bIt, aF, bF, st)
		aF.Unpin()
		bF.Unpin()
		if err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// mergePair executes the two-phase merge of children at entries i and i+1.
func (t *Tree) mergePair(parent *pathEntry, i int, aIt, bIt internalItem, aF, bF *buffer.Frame, st *MergeStats) error {
	pp := parent.frame.Data
	level := aF.Data.Level()
	t.obs.Eventf(obs.MergeStart, aIt.child, "level %d: merging %d + %d onto a fresh page", level, aIt.child, bIt.child)

	aLo, _, err := childRange(pp, i, parent.lo, parent.hi)
	if err != nil {
		return err
	}
	_, bHi, err := childRange(pp, i+1, parent.lo, parent.hi)
	if err != nil {
		return err
	}

	// Phase 1: build M on a fresh page and make it durable.
	aItems, err := liveItems(aF.Data)
	if err != nil {
		return err
	}
	bItems, err := liveItems(bF.Data)
	if err != nil {
		return err
	}
	merged, err := mergeItemRuns(aItems, bItems)
	if err != nil {
		return err
	}
	mNo, mF, err := t.allocPage(aLo, bHi)
	if err != nil {
		return err
	}
	defer mF.Unpin()
	t.initTreePage(mF, level)
	if err := buildPage(mF.Data, merged); err != nil {
		return err
	}
	if level == 0 {
		// Stitch M into the peer chain where A and B sat: the outer
		// neighbors link directly at M with fresh shared tokens.
		if err := t.fixMergedPeers(aF.Data.LeftPeer(), bF.Data.RightPeer(), mNo, mF); err != nil {
			return err
		}
	}
	mF.MarkDirty()
	if err := t.syncLocked(); err != nil {
		return err
	}
	st.Syncs++

	// Phase 2: one atomic parent-page update — K1 -> M (prev := M for
	// shadow levels: M is the durable pre-image of itself now), K2
	// deleted with the careful protocol.
	if pp.HasFlag(page.FlagShadow) {
		if err := patchInternalPrev(pp, i, mNo); err != nil {
			return err
		}
	}
	if err := patchInternalChild(pp, i, mNo); err != nil {
		return err
	}
	pp.ClearFlag(page.FlagLineClean)
	if err := pp.DeleteSlot(i + 1); err != nil {
		return err
	}
	pp.AddFlag(page.FlagLineClean)
	parent.frame.MarkDirty()

	// Phase 3: retire A and B once the new parent is durable.
	t.freeAfterSync(aIt.child, aLo, bHi)
	t.freeAfterSync(bIt.child, aLo, bHi)
	st.Merged++
	t.obs.Eventf(obs.MergeCommit, mNo, "parent updated atomically; %d and %d retired", aIt.child, bIt.child)
	return nil
}

// liveBytes sums the on-page footprint of the live items plus their
// line-table entries.
func liveBytes(p page.Page) int {
	total := 0
	for i := 0; i < p.NKeys(); i++ {
		item := p.Item(i)
		if item == nil {
			return page.Size // treat unreadable as full: never merge it
		}
		total += len(item) + 4 // item + length prefix + line-table slot
	}
	return total
}

// fixMergedPeers sets M's own peer pointers and re-links both outer
// neighbors directly at M with fresh shared tokens.
func (t *Tree) fixMergedPeers(leftPeer, rightPeer uint32, mNo uint32, mF *buffer.Frame) error {
	tok := t.counter.Current()
	mF.Data.SetLeftPeer(leftPeer)
	mF.Data.SetRightPeer(rightPeer)
	if leftPeer != 0 {
		lf, err := t.pool.Get(leftPeer)
		if err != nil {
			return err
		}
		if lf.Data.Valid() && lf.Data.Type() == page.TypeLeaf {
			lf.Data.SetRightPeer(mNo)
			lf.Data.SetRightPeerToken(tok)
			mF.Data.SetLeftPeerToken(tok)
			lf.MarkDirty()
		}
		lf.Unpin()
	}
	if rightPeer != 0 {
		rf, err := t.pool.Get(rightPeer)
		if err != nil {
			return err
		}
		if rf.Data.Valid() && rf.Data.Type() == page.TypeLeaf {
			rf.Data.SetLeftPeer(mNo)
			rf.Data.SetLeftPeerToken(tok)
			mF.Data.SetRightPeerToken(tok)
			rf.MarkDirty()
		}
		rf.Unpin()
	}
	mF.MarkDirty()
	return nil
}
