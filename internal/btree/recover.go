package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// This file implements the repair side of both techniques. Repairs run
// under the exclusive tree lock, triggered on first use of a damaged path
// (§3.3.2, §3.4): "consistency is restored by reexecuting incomplete page
// split or merge operations" — the repair code below is deliberately built
// from the same page-construction helpers the normal split uses.

// repairRoot handles a lost root (§3.3.2): the meta page reached stable
// storage pointing at a root page that did not. The previous root —
// guaranteed durable, covering the whole key space — is copied directly to
// the root's page number. If no root existed before the failure, every key
// in the tree belonged to the uncommitted transaction that died with it,
// and the root is initialized to an empty page.
func (t *Tree) repairRoot(metaFrame, rootFrame *buffer.Frame) error {
	m := metaPage{metaFrame.Data}
	global := t.counter.Current()
	// If the page at the root's location is valid and carries a *newer*
	// token than the meta page expects, it is the reorganized half of an
	// interrupted root replacement at the same page number (the meta
	// write was the page that missed the disk). The pre-failure state is
	// recovered in place by folding any backup keys back in; a *stale*
	// token, by contrast, means the location was reused and the true
	// previous root must be consulted.
	rp := rootFrame.Data
	if rp.Valid() && (rp.Type() == page.TypeLeaf || rp.Type() == page.TypeInternal) &&
		rp.SyncToken() > m.rootToken() {
		if rp.PrevNKeys() != 0 {
			caseMetric := t.reorgCaseAB(rp)
			if err := t.mergeBackupsInto(rootFrame); err != nil {
				return err
			}
			t.obs.Eventf(caseMetric, uint32(rootFrame.PageNo()), "root backups folded back in place")
		}
		rp.SetSyncToken(global)
		rp.SetNewPage(0)
		rootFrame.MarkDirty()
		m.setRootToken(global)
		metaFrame.MarkDirty()
		t.obs.Eventf(obs.RepairRoot, uint32(rootFrame.PageNo()), "interrupted root replacement folded in place")
		return nil
	}
	if prev := m.prevRoot(); prev != 0 {
		prevFrame, err := t.pool.Get(prev)
		if err != nil {
			if errors.Is(err, buffer.ErrQuarantined) && t.rebuildFallback {
				return t.rebuildRootEmpty(metaFrame, rootFrame, "previous root %d is quarantined", prev)
			}
			return err
		}
		defer prevFrame.Unpin()
		if prevFrame.Data.IsZeroed() || !prevFrame.Data.Valid() {
			if t.rebuildFallback {
				return t.rebuildRootEmpty(metaFrame, rootFrame, "previous root %d is not durable", prev)
			}
			return fmt.Errorf("%w: previous root %d is not durable", ErrUnrecoverable, prev)
		}
		copy(rootFrame.Data, prevFrame.Data)
		// The restored image may carry backup keys from a
		// reorganization split of the old root; the lost new root
		// covered the whole key space, so the correct pre-failure
		// state is the merge of live and backup keys (§3.4 cases
		// (a)/(b) seen from the top of the tree).
		if rootFrame.Data.PrevNKeys() != 0 {
			caseMetric := t.reorgCaseAB(rootFrame.Data)
			if err := t.mergeBackupsInto(rootFrame); err != nil {
				return err
			}
			t.obs.Eventf(caseMetric, uint32(rootFrame.PageNo()), "restored root backups folded back")
		}
		rootFrame.Data.SetSyncToken(global)
		rootFrame.Data.SetNewPage(0)
		t.obs.Eventf(obs.RepairRoot, uint32(rootFrame.PageNo()), "copied from prevRoot %d", prev)
	} else {
		t.initTreePage(rootFrame, 0)
		t.obs.Eventf(obs.RepairRoot, uint32(rootFrame.PageNo()), "initialized empty root")
	}
	rootFrame.MarkDirty()
	m.setRootToken(global)
	metaFrame.MarkDirty()
	return nil
}

// reorgCaseAB distinguishes §3.4 case (a) from case (b) for a page whose
// backup keys are being folded back in. In both cases the parent's update
// missed the disk and the pre-split state is restored from the backups; in
// (b) the new sibling P_b also became durable (and is simply abandoned),
// while in (a) only P_a reached the disk. The sibling named by the page's
// newPage pointer decides: a valid page of the same type there means (b).
func (t *Tree) reorgCaseAB(p page.Page) obs.Metric {
	sibNo := p.NewPage()
	if sibNo != 0 {
		if sf, err := t.pool.Get(sibNo); err == nil {
			isB := sf.Data.Valid() && sf.Data.Type() == p.Type()
			sf.Unpin()
			if isB {
				return obs.RepairReorgB
			}
		}
	}
	return obs.RepairReorgA
}

// mergeBackupsInto folds a page's backup keys back into its live set —
// "assigning prevNKeys to nKeys reallocates the duplicate keys" (§3.4). The
// live and backup runs are each sorted; they are merged and the page is
// rebuilt so the combined line table is ordered regardless of which half
// was the reorganized one.
func (t *Tree) mergeBackupsInto(f *buffer.Frame) error {
	live, err := liveItems(f.Data)
	if err != nil {
		return err
	}
	backs, err := backupItems(f.Data)
	if err != nil {
		return err
	}
	merged, err := mergeItemRuns(live, backs)
	if err != nil {
		return err
	}
	level := f.Data.Level()
	leftPeer, rightPeer := f.Data.LeftPeer(), f.Data.RightPeer()
	t.initTreePage(f, level)
	if err := buildPage(f.Data, merged); err != nil {
		return err
	}
	// The restored page takes the place the pre-split page held on the
	// peer chain; tokens of zero force lazy re-verification (§3.5.1).
	f.Data.SetLeftPeer(leftPeer)
	f.Data.SetRightPeer(rightPeer)
	t.markRepairedLeaf(f)
	f.MarkDirty()
	return nil
}

// repairChild re-executes the interrupted split that left entry idx's child
// inconsistent, dispatching on the technique that governs splits at the
// child's level.
func (t *Tree) repairChild(parent *pathEntry, idx int, it internalItem, childFrame *buffer.Frame, cLo, cHi []byte) error {
	level := parent.frame.Data.Level() - 1
	if t.splitUsesShadow(level) {
		return t.repairShadowChild(parent, idx, it, childFrame, cLo, cHi)
	}
	return t.repairReorgChild(parent, idx, childFrame, cLo, cHi)
}

// repairShadowChild rebuilds a lost child from the prevPtr page (§3.3.2):
// the keys the parent's range prescribes are copied directly from the
// previous version of the page, and the child's sync token is set to the
// current global sync counter.
func (t *Tree) repairShadowChild(parent *pathEntry, idx int, it internalItem, childFrame *buffer.Frame, cLo, cHi []byte) error {
	level := parent.frame.Data.Level() - 1
	if it.prev == 0 {
		return t.unrecoverableChild(childFrame, level,
			"child %d of page %d has no previous version", it.child, parent.no)
	}
	prevFrame, err := t.pool.Get(it.prev)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			return t.unrecoverableChild(childFrame, level,
				"previous page %d of child %d is quarantined", it.prev, it.child)
		}
		return err
	}
	if prevFrame.Data.IsZeroed() || !prevFrame.Data.Valid() {
		// A zero-routed prev image is useless to every future repair
		// attempt; drop it so a supervisor retry after the media heals
		// re-reads the durable image instead of this cached zero page.
		prevFrame.Unpin()
		t.pool.Drop(it.prev)
		return t.unrecoverableChild(childFrame, level,
			"previous page %d of child %d is not durable", it.prev, it.child)
	}
	defer prevFrame.Unpin()
	items, err := liveItems(prevFrame.Data)
	if err != nil {
		return err
	}
	// The previous page may itself retain backup keys (hybrid trees);
	// consult them too — duplicates are filtered by key.
	if prevFrame.Data.PrevNKeys() != 0 {
		backs, err := backupItems(prevFrame.Data)
		if err != nil {
			return err
		}
		if items, err = mergeItemRuns(items, backs); err != nil {
			return err
		}
	}
	inRange, err := itemsInRange(items, cLo, cHi)
	if err != nil {
		return err
	}
	t.initTreePage(childFrame, level)
	if err := buildPage(childFrame.Data, inRange); err != nil {
		return err
	}
	// Peer pointers are restored from the pre-split image with zero
	// tokens: the mismatch forces the lazy peer-path repair of §3.5.1 on
	// the next scan or insert that crosses them.
	childFrame.Data.SetLeftPeer(prevFrame.Data.LeftPeer())
	childFrame.Data.SetRightPeer(prevFrame.Data.RightPeer())
	t.markRepairedLeaf(childFrame)
	childFrame.MarkDirty()
	t.obs.Eventf(obs.RepairShadow, it.child, "re-copied from prevPtr page %d", it.prev)
	return nil
}

// repairReorgChild repairs the five partial-sync failure cases of §3.4.
// Two shapes arrive here:
//
//   - The child page is uninitialized or garbage: the new half of a split
//     that never reached the disk (cases (c)/(e) for the K2 entry). The
//     surviving sibling still carries the moved keys as backups (or, for
//     case (e), the whole pre-split page survives at the other entry);
//     repairLostReorgChild regenerates the child from it.
//   - The child page is valid but holds keys outside the range the parent
//     prescribes: the pre-split page image survived at the original
//     location while the reorganized half was lost (cases (d)/(e) for the
//     K1 entry). repairStaleReorgPage re-executes the split from the
//     surviving image.
func (t *Tree) repairReorgChild(parent *pathEntry, idx int, childFrame *buffer.Frame, cLo, cHi []byte) error {
	p := childFrame.Data
	if !p.IsZeroed() && p.Valid() && p.Type() != page.TypeFree {
		if minKey, maxKey, ok, err := minMaxKeys(p); err == nil && ok {
			if !keyInRange(minKey, cLo, cHi) || !keyInRange(maxKey, cLo, cHi) {
				return t.repairStaleReorgPage(parent, idx, childFrame)
			}
		}
	}
	return t.repairLostReorgChild(parent, idx, childFrame, cLo, cHi)
}

// repairStaleReorgPage handles a surviving pre-split image: the page at
// entry idx covers more than its prescribed range. The split (or chain of
// splits within one epoch) is repeated: every sibling entry whose range the
// old image covers and whose own page is missing is regenerated from the
// old keys, and the page itself is rebuilt to its half — retaining the rest
// of the old keys as backups until a sync commits the rebuilt family,
// exactly as a fresh split would ("the split is repeated", case (e)).
func (t *Tree) repairStaleReorgPage(parent *pathEntry, idx int, childFrame *buffer.Frame) error {
	pp := parent.frame.Data
	oldLive, err := liveItems(childFrame.Data)
	if err != nil {
		return err
	}
	oldBacks, err := backupItems(childFrame.Data)
	if err != nil {
		return err
	}
	oldItems, err := mergeItemRuns(oldLive, oldBacks)
	if err != nil {
		return err
	}
	if len(oldItems) == 0 {
		return fmt.Errorf("%w: stale page %d holds no keys", ErrUnrecoverable, parent.noOfChild(idx))
	}
	oldMin, err := itemKey(oldItems[0])
	if err != nil {
		return err
	}
	oldMax, err := itemKey(oldItems[len(oldItems)-1])
	if err != nil {
		return err
	}

	global := t.counter.Current()
	level := pp.Level() - 1
	rebuiltSibling := false
	undurableSibling := false

	// Walk every sibling entry whose range intersects the old image's
	// key span and regenerate the ones that are missing.
	for j := 0; j < pp.NKeys(); j++ {
		if j == idx {
			continue
		}
		sLo, sHi, err := childRange(pp, j, parent.lo, parent.hi)
		if err != nil {
			return err
		}
		// Intersect [sLo,sHi) with [oldMin,oldMax]: skip disjoint.
		if sHi != nil && bytes.Compare(sHi, oldMin) <= 0 {
			continue
		}
		if len(sLo) > 0 && bytes.Compare(sLo, oldMax) > 0 {
			continue
		}
		sit, err := internalEntry(pp, j)
		if err != nil {
			return err
		}
		sf, err := t.pool.Get(sit.child)
		if err != nil {
			return err
		}
		okSib, err := t.childConsistent(sf.Data, level, sLo, sHi)
		if err != nil {
			sf.Unpin()
			return err
		}
		if okSib {
			if !t.durable(sf.Data.SyncToken()) {
				undurableSibling = true
			}
			sf.Unpin()
			continue
		}
		if sf.Data.Valid() && (sf.Data.Type() == page.TypeLeaf || sf.Data.Type() == page.TypeInternal) {
			// A valid but out-of-range sibling is another surviving
			// pre-split image. Its own content is newer than
			// anything this page could give it — it repairs itself
			// when descended. Treat it as unresolved so our backups
			// stay until the whole family is durable.
			undurableSibling = true
			sf.Unpin()
			continue
		}
		want, err := itemsInRange(oldItems, sLo, sHi)
		if err != nil {
			sf.Unpin()
			return err
		}
		t.initTreePage(sf, level)
		if err := buildPage(sf.Data, want); err != nil {
			sf.Unpin()
			return err
		}
		t.markRepairedLeaf(sf)
		sf.MarkDirty()
		sf.Unpin()
		rebuiltSibling = true
	}

	// Rebuild the page itself down to its prescribed half.
	cLo, cHi, err := childRange(pp, idx, parent.lo, parent.hi)
	if err != nil {
		return err
	}
	live, err := itemsInRange(oldItems, cLo, cHi)
	if err != nil {
		return err
	}
	var backs [][]byte
	for _, item := range oldItems {
		k, err := itemKey(item)
		if err != nil {
			return err
		}
		if !keyInRange(k, cLo, cHi) {
			backs = append(backs, item)
		}
	}
	t.initTreePage(childFrame, level)
	if err := buildPage(childFrame.Data, live); err != nil {
		return err
	}
	if (rebuiltSibling || undurableSibling) && len(backs) > 0 {
		// Some covered siblings exist only in memory: keep the old
		// keys as backups until a sync makes the family durable, as a
		// fresh split would (§3.4).
		if err := attachBackups(childFrame.Data, backs); err != nil {
			return err
		}
		if sib := adjacentChild(pp, idx); sib != 0 {
			childFrame.Data.SetNewPage(sib)
		}
	}
	t.markRepairedLeaf(childFrame)
	childFrame.Data.SetSyncToken(global)
	childFrame.MarkDirty()
	if rebuiltSibling {
		t.obs.Eventf(obs.RepairReorgE, parent.noOfChild(idx),
			"split repeated from surviving pre-split image; missing siblings rebuilt")
	} else {
		t.obs.Eventf(obs.RepairReorgD, parent.noOfChild(idx),
			"surviving pre-split image trimmed to its prescribed range")
	}
	return nil
}

// repairLostReorgChild regenerates a child that never reached the disk by
// copying the duplicate keys saved on a surviving relative (case (c): "P_b
// is regenerated by copying the duplicate keys saved on P_a"). The source
// is found among the parent's other entries: a valid page whose newPage
// pointer names the lost child, or — for splits chained within one epoch —
// any valid sibling whose live∪backup keys cover the lost range, or a
// surviving pre-split image, which is handled by re-running the stale-page
// repair centered on it.
func (t *Tree) repairLostReorgChild(parent *pathEntry, idx int, childFrame *buffer.Frame, cLo, cHi []byte) error {
	pp := parent.frame.Data
	level := pp.Level() - 1
	childNo := parent.noOfChild(idx)

	// Survey the parent's other entries. Three kinds of source can
	// regenerate the lost child, in decreasing order of authority:
	//
	//	1. the exact split partner — a sibling whose newPage pointer
	//	   names the lost child and whose backups are its keys
	//	   (the paper's case (c));
	//	2. a surviving pre-split image — a valid sibling whose keys
	//	   overflow its own prescribed range; repeating its split
	//	   regenerates the lost child too (case (e));
	//	3. for splits chained within a single epoch, any sibling whose
	//	   backups overlap the lost range. Among several, the one with
	//	   the largest sync token is the freshest; a stale source from
	//	   an earlier, long-committed split must never win over one
	//	   from the interrupted split.
	type candidate struct {
		child uint32
		token uint64
	}
	var exact, stale *candidate
	var fallbacks []candidate

	for _, j := range neighborOrder(idx, pp.NKeys()) {
		sLo, sHi, err := childRange(pp, j, parent.lo, parent.hi)
		if err != nil {
			return err
		}
		sit, err := internalEntry(pp, j)
		if err != nil {
			return err
		}
		if sit.child == childNo {
			continue
		}
		sf, err := t.pool.Get(sit.child)
		if err != nil {
			return err
		}
		sp := sf.Data
		if sp.IsZeroed() || !sp.Valid() {
			sf.Unpin()
			continue
		}
		minKey, maxKey, okKeys, err := minMaxKeys(sp)
		if err != nil || !okKeys {
			sf.Unpin()
			continue
		}
		cand := candidate{child: sit.child, token: sp.SyncToken()}
		switch {
		case sp.NewPage() == childNo && sp.PrevNKeys() != 0:
			if exact == nil {
				exact = &cand
			}
		case !keyInRange(minKey, sLo, sHi) || !keyInRange(maxKey, sLo, sHi):
			if stale == nil {
				stale = &cand
			}
		case sp.PrevNKeys() != 0:
			if backs, err := backupItems(sp); err == nil {
				if want, err := itemsInRange(backs, cLo, cHi); err == nil && len(want) > 0 {
					fallbacks = append(fallbacks, cand)
				}
			}
		}
		sf.Unpin()
	}

	regenerateFrom := func(srcNo uint32) error {
		sf, err := t.pool.Get(srcNo)
		if err != nil {
			return err
		}
		defer sf.Unpin()
		live, err := liveItems(sf.Data)
		if err != nil {
			return err
		}
		backs, err := backupItems(sf.Data)
		if err != nil {
			return err
		}
		all, err := mergeItemRuns(live, backs)
		if err != nil {
			return err
		}
		want, err := itemsInRange(all, cLo, cHi)
		if err != nil {
			return err
		}
		t.initTreePage(childFrame, level)
		if err := buildPage(childFrame.Data, want); err != nil {
			return err
		}
		t.markRepairedLeaf(childFrame)
		childFrame.MarkDirty()
		// The source's backups remain the only durable copy until a
		// sync commits the regenerated child: re-stamp it so updates
		// block for that sync first (reclaim case 1).
		sf.Data.SetSyncToken(t.counter.Current())
		sf.MarkDirty()
		return nil
	}

	if exact != nil {
		t.obs.Eventf(obs.RepairReorgC, childNo, "regenerated from split partner %d's backups", exact.child)
		return regenerateFrom(exact.child)
	}
	if stale != nil {
		// Repeat the surviving image's split; our child is one of the
		// pages it regenerates.
		entryIdx := -1
		for j := 0; j < pp.NKeys(); j++ {
			it, err := internalEntry(pp, j)
			if err != nil {
				return err
			}
			if it.child == stale.child {
				entryIdx = j
				break
			}
		}
		if entryIdx >= 0 {
			sf, err := t.pool.Get(stale.child)
			if err != nil {
				return err
			}
			err = t.repairStaleReorgPage(parent, entryIdx, sf)
			sf.Unpin()
			if err != nil {
				return err
			}
			if childFrame.Data.Valid() {
				return nil
			}
		}
	}
	if len(fallbacks) > 0 {
		best := fallbacks[0]
		for _, c := range fallbacks[1:] {
			if c.token > best.token {
				best = c
			}
		}
		t.obs.Eventf(obs.RepairReorgC, childNo, "regenerated from chained sibling %d's backups", best.child)
		return regenerateFrom(best.child)
	}

	// No source under this parent. If the lost child sits at the parent's
	// edge, the split partner may live under the adjacent parent (a
	// parent split in the same epoch can separate the two); probe the
	// range-adjacent leaf through a root descent before concluding.
	if level == 0 {
		if srcNo, ok, err := t.probeAdjacentSource(parent, idx, childNo, cLo, cHi); err != nil {
			return err
		} else if ok {
			t.obs.Eventf(obs.RepairReorgC, childNo, "regenerated from adjacent-parent source %d", srcNo)
			return regenerateFrom(srcNo)
		}
	}

	// Still nothing: every key the child held was inserted after the
	// interrupted split and never committed — there is no durable state
	// to restore. The correct pre-failure tree simply has no entry here:
	// remove it, letting the left neighbor's range absorb the dead gap.
	if pp.NKeys() <= 1 {
		return t.unrecoverableChild(childFrame, level,
			"cannot drop the last entry of parent %d for lost child %d", parent.no, childNo)
	}
	pp.ClearFlag(page.FlagLineClean)
	if err := pp.DeleteSlot(idx); err != nil {
		return err
	}
	pp.AddFlag(page.FlagLineClean)
	parent.frame.MarkDirty()
	t.obs.Eventf(obs.RepairEntryDrop, childNo, "no durable source; parent %d's entry removed", parent.no)
	return errEntryDropped
}

// errEntryDropped tells the descent that the repair removed the parent
// entry it was following; the descent re-selects on the updated parent.
var errEntryDropped = errors.New("btree: parent entry dropped during repair")

// probeAdjacentSource looks for a recovery source for a lost edge child
// under the neighboring parent: the leaf covering the keys just below cLo
// (and, failing that, the leaf covering cHi). A usable source names the
// child in its newPage pointer or holds backup keys overlapping the lost
// range.
func (t *Tree) probeAdjacentSource(parent *pathEntry, idx int, childNo uint32, cLo, cHi []byte) (uint32, bool, error) {
	check := func(e *pathEntry) (uint32, bool) {
		if e == nil || e.no == childNo {
			return 0, false
		}
		p := e.frame.Data
		if !p.Valid() || p.PrevNKeys() == 0 {
			return 0, false
		}
		if p.NewPage() == childNo {
			return e.no, true
		}
		backs, err := backupItems(p)
		if err != nil {
			return 0, false
		}
		want, err := itemsInRange(backs, cLo, cHi)
		if err != nil || len(want) == 0 {
			return 0, false
		}
		return e.no, true
	}
	if idx == 0 && len(cLo) > 0 {
		ln, err := t.repairedLeaf(cLo, true)
		if err != nil {
			return 0, false, err
		}
		if ln != nil {
			no, ok := check(ln)
			ln.frame.Unpin()
			if ok {
				return no, true, nil
			}
		}
	}
	if idx == parent.frame.Data.NKeys()-1 && cHi != nil {
		rn, err := t.repairedLeaf(cHi, false)
		if err != nil {
			return 0, false, err
		}
		if rn != nil {
			no, ok := check(rn)
			rn.frame.Unpin()
			if ok {
				return no, true, nil
			}
		}
	}
	return 0, false, nil
}

// resolveBackups is the free-space reclaim decision of §3.4 for a page
// whose sync token predates the last crash (case 3): the page still holds
// backup keys and the DBMS cannot immediately tell whether the split that
// created them committed. Per the paper, the newPage pointer identifies the
// sibling: "If the sibling exists and has the same sync token as the
// current page (or a larger one), the sibling does not need to be
// recovered ... If the sibling is zero or has an older sync token, the
// sibling is out of date and must be recovered."
//
// The token comparison matters: a sibling whose content is newer than the
// backups (the split synced long ago and the sibling kept evolving) must
// NEVER be overwritten from them — its own image is the fresher truth even
// if a later interrupted split left it out of range (that page repairs
// itself from its own content via repairStaleReorgPage when descended).
func (t *Tree) resolveBackups(parent *pathEntry, idx int, childFrame *buffer.Frame, cLo, cHi []byte) error {
	p := childFrame.Data
	backs, err := backupItems(p)
	if err != nil {
		return err
	}
	if len(backs) == 0 {
		// prevNKeys set but no extra entries: nothing retained.
		reclaimBackups(p)
		childFrame.MarkDirty()
		t.obs.Count(obs.BackupReclaim)
		return nil
	}
	// If every backup key falls inside the page's own prescribed range,
	// the parent was never updated: the split's transaction did not
	// commit and the correct state is the pre-split page (cases (a)/(b):
	// regenerate P by reallocating the duplicate keys).
	allInOwnRange := true
	for _, item := range backs {
		k, err := itemKey(item)
		if err != nil {
			return err
		}
		if !keyInRange(k, cLo, cHi) {
			allInOwnRange = false
			break
		}
	}
	if allInOwnRange {
		caseMetric := t.reorgCaseAB(p)
		if err := t.mergeBackupsInto(childFrame); err != nil {
			return err
		}
		t.obs.Eventf(caseMetric, uint32(childFrame.PageNo()), "parent not updated; backups folded back")
		return nil
	}

	// The parent was updated: the backups duplicate keys owned by the
	// split sibling named by newPage.
	sibNo := p.NewPage()
	if sibNo == 0 {
		// Cannot identify the sibling: keep the backups and let
		// updates to this page block for a sync (reclaim case 1).
		p.SetSyncToken(t.counter.Current())
		childFrame.MarkDirty()
		t.obs.Count(obs.BackupHold)
		return nil
	}
	sf, err := t.pool.Get(sibNo)
	if err != nil {
		return err
	}
	defer sf.Unpin()
	sp := sf.Data
	if sp.Valid() && sp.Type() == p.Type() && sp.SyncToken() >= p.SyncToken() {
		// Sibling present and at least as new as the split: nothing to
		// recover. The backups can go as soon as the sibling is known
		// durable.
		if t.durable(sp.SyncToken()) {
			reclaimBackups(p)
			childFrame.MarkDirty()
			t.obs.Count(obs.BackupReclaim)
		} else {
			p.SetSyncToken(t.counter.Current())
			childFrame.MarkDirty()
			t.obs.Count(obs.BackupHold)
		}
		return nil
	}
	// Sibling lost: regenerate it from the duplicate keys, restricted to
	// the range the parent prescribes for it when an entry exists.
	sLo, sHi, err := t.rangeOfChild(parent, sibNo)
	if err != nil {
		return err
	}
	live, err := liveItems(p)
	if err != nil {
		return err
	}
	all, err := mergeItemRuns(live, backs)
	if err != nil {
		return err
	}
	want, err := itemsInRange(all, sLo, sHi)
	if err != nil {
		return err
	}
	// Keys in the page's own range stay here; the sibling gets the rest.
	filtered := want[:0]
	for _, item := range want {
		k, err := itemKey(item)
		if err != nil {
			return err
		}
		if !keyInRange(k, cLo, cHi) {
			filtered = append(filtered, item)
		}
	}
	level := p.Level()
	t.initTreePage(sf, level)
	if err := buildPage(sf.Data, filtered); err != nil {
		return err
	}
	t.markRepairedLeaf(sf)
	sf.MarkDirty()
	t.obs.Eventf(obs.RepairReorgC, sibNo, "sibling regenerated from backups of page %d", uint32(childFrame.PageNo()))
	// The backups remain the only durable copy until a sync commits the
	// regenerated sibling: stamp the current token so updates block for
	// that sync first (reclaim case 1).
	p.SetSyncToken(t.counter.Current())
	childFrame.MarkDirty()
	return nil
}

// rangeOfChild returns the prescribed key range for the parent entry whose
// child pointer names no, or (nil, nil) when the parent has no such entry.
func (t *Tree) rangeOfChild(parent *pathEntry, no uint32) ([]byte, []byte, error) {
	pp := parent.frame.Data
	for j := 0; j < pp.NKeys(); j++ {
		it, err := internalEntry(pp, j)
		if err != nil {
			return nil, nil, err
		}
		if it.child == no {
			return childRange(pp, j, parent.lo, parent.hi)
		}
	}
	return nil, nil, nil
}

// noOfChild returns the child page number stored at entry idx.
func (e *pathEntry) noOfChild(idx int) uint32 {
	it, err := internalEntry(e.frame.Data, idx)
	if err != nil {
		return 0
	}
	return it.child
}

// adjacentChild returns the child of the entry next to idx (preferring the
// right), for recording a best-effort newPage pointer during repair.
func adjacentChild(p page.Page, idx int) uint32 {
	if idx+1 < p.NKeys() {
		if it, err := decodeInternalItem(p.Item(idx+1), p.HasFlag(page.FlagShadow)); err == nil {
			return it.child
		}
	}
	if idx > 0 {
		if it, err := decodeInternalItem(p.Item(idx-1), p.HasFlag(page.FlagShadow)); err == nil {
			return it.child
		}
	}
	return 0
}

// neighborOrder yields indexes 0..n-1 excluding idx, nearest to idx first.
func neighborOrder(idx, n int) []int {
	out := make([]int, 0, n)
	for d := 1; d < n; d++ {
		if idx-d >= 0 {
			out = append(out, idx-d)
		}
		if idx+d < n {
			out = append(out, idx+d)
		}
	}
	return out
}

// markRepairedLeaf flags a rebuilt leaf for §3.5.1 peer-path verification
// on its first update: its links were restored from a pre-split image and a
// stale duplicate may still sit on the chain into it. The token comparison
// alone cannot catch this — the repair stamps the CURRENT token.
func (t *Tree) markRepairedLeaf(f *buffer.Frame) {
	if f.Data.Type() == page.TypeLeaf {
		f.Data.AddFlag(page.FlagPeerSuspect)
	}
}
