package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// Insert adds <key,value> to the index. Keys are unique (§2: POSTGRES
// turns duplicates into <value, object_id> keys before they reach the
// index); inserting an existing key returns ErrDuplicateKey.
func (t *Tree) Insert(key, value []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if err := validateValue(value); err != nil {
		return err
	}
	if err := t.awaitBound(); err != nil {
		return err
	}
	for attempt := 0; attempt < maxSharedRetries; attempt++ {
		t.mu.RLock()
		ver := t.structVer.Load()
		var err error
		if ver%2 != 0 {
			err = errRetryShared // split in flight: snapshot again
		} else {
			err = t.insertShared(key, value, ver)
		}
		t.mu.RUnlock()
		if errors.Is(err, errRetryShared) {
			t.obs.Count(obs.LatchRetry)
			retryBackoff(attempt)
			continue
		}
		if errors.Is(err, errNeedsExclusive) {
			break
		}
		return err
	}
	// Fall back to the exclusive lock: repairs, peer verification and
	// empty-tree creation all live there.
	t.obs.Count(obs.ExclusiveFallback)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertPath(key, value, repairing)
}

// leafState is what prepareLeaf found out about a leaf.
type leafState uint8

const (
	leafReady      leafState = iota // the item fits: insert it under this latch
	leafFull                        // no room even with the backups gone: split
	leafUnverified                  // §3.5.1 peer verification first — a repair, exclusive only
	leafUnsynced                    // §3.4 reclaim case (1): a blocked sync first, with no latch held
)

// prepareLeaf is the sequence every insert runs on its write-latched leaf
// before adding key, in this order: the §3.5.1 question (before the first
// insert into a leaf written before the most recent crash — or rebuilt by
// recovery since it — the leaf must be linked into the current peer-pointer
// path: the worst-case failure of Figure 3 leaves a stale pre-split
// duplicate on the old chain); the duplicate check, before any structural
// work; the §3.4 free-space reclaim, since a page still holding backup keys
// must resolve them before the update; and whether the item fits. pos is
// where the key goes. What the state asks for, the caller does if it holds
// what that takes, and prepares again.
func (t *Tree) prepareLeaf(f *buffer.Frame, key []byte, itemLen int) (pos int, st leafState, err error) {
	p := f.Data
	if t.needsPeerVerify(f) {
		return 0, leafUnverified, nil
	}
	pos, found, err := leafSearch(p, key)
	if err != nil {
		return 0, 0, err
	}
	if found {
		return 0, 0, fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	if t.reclaimLatched(f) {
		return 0, leafUnsynced, nil
	}
	if !p.CanFit(itemLen) {
		return 0, leafFull, nil
	}
	return pos, leafReady, nil
}

// insertShared is the shared-mode insert fast path: latched descent, then
// the whole leaf update under the leaf's write latch. Structural work
// (splits) and anything touching repair or blocked syncs is delegated.
func (t *Tree) insertShared(key, value []byte, v uint64) error {
	sc := getDescent()
	defer putDescent(sc)
	leaf, err := t.writeLeafShared(key, v, sc)
	if err != nil {
		return err
	}
	f := leaf.frame
	pos, st, err := t.prepareLeaf(f, key, leafItemLen(key, value))
	if err == nil && st == leafReady {
		if err = insertLeafAt(f.Data, pos, key, value); err == nil {
			f.MarkDirty()
		}
	}
	f.WUnlatch()
	f.Unpin()
	switch {
	case err != nil:
		return t.pageErr(readOnly, v, err)
	case st == leafReady:
		return nil
	case st == leafUnverified:
		return errNeedsExclusive
	}
	// A split, or a blocked sync, which must not run while a frame latch is
	// held. insertPath does both under splitMu with the tree lock still
	// shared, so inserts and lookups on other leaves keep flowing — going
	// exclusive here would convoy every shared op behind a full pool flush
	// each time a freshly split leaf is touched again.
	return t.insertPath(key, value, readOnly)
}

// writeLeafShared descends read-only to key's leaf and returns it pinned and
// write-latched, bounds staged in sc. From there the leaf cannot change under
// the caller: leaf inserts need this write latch, splits latch the leaf
// before reading it, and deletes are exclusive.
func (t *Tree) writeLeafShared(key []byte, v uint64, sc *descentScratch) (pathEntry, error) {
	leaf, _, err := t.descend(descent{key: key, mode: readOnly, ver: v}, sc)
	if err != nil {
		return pathEntry{}, err
	}
	if leaf.frame == nil {
		return pathEntry{}, errNeedsExclusive // createRootLeaf initializes meta state
	}
	leaf.frame.WLatch()
	if !t.structStable(v) {
		// The leaf's identity came from a descent the structure has since
		// outrun; re-descend rather than reason about stale bounds.
		leaf.frame.WUnlatch()
		leaf.frame.Unpin()
		return pathEntry{}, errRetryShared
	}
	return leaf, nil
}

// insertPath is the insert that may wait and may split: it keeps the whole
// root-to-leaf path pinned, re-runs prepareLeaf under the leaf's write
// latch, does what the leaf asks for, and splits a full leaf with the
// structure version held odd so concurrent negative results are retried.
//
// readOnly, the caller holds the shared tree lock: the split lock taken here
// conflicts only with other splits and syncs, and what needs a repair goes
// back as errNeedsExclusive. repairing, the caller holds the exclusive lock,
// and the same body also verifies peer links and plants the first root.
func (t *Tree) insertPath(key, value []byte, mode descentMode) error {
	t.splitMu.Lock()
	defer t.splitMu.Unlock()
	// With splitMu held no structural change is in flight, so the version is
	// stable and any failed validation is genuine damage.
	v := t.structVer.Load()
	_, path, err := t.descend(descent{key: key, mode: mode, ver: v, path: true}, nil)
	if err != nil {
		return err
	}
	if path == nil {
		if mode == readOnly {
			return errNeedsExclusive
		}
		return t.createRootLeaf(key, value)
	}
	defer releasePath(path)
	leafDepth := len(path) - 1
	leaf := &path[leafDepth]
	lf := leaf.frame
	itemLen := leafItemLen(key, value)

	lf.WLatch()
	pos, st, err := t.prepareLeaf(lf, key, itemLen)
	// Each wait below comes up at most once: verification flags the leaf,
	// and the sync moves the counter past the leaf's token. Both run with
	// the latch dropped — they descend, and flush under shared latches.
	if err == nil && st == leafUnverified && mode == repairing {
		lf.WUnlatch()
		if err := t.verifyPeerPath(leaf); err != nil {
			return err
		}
		lf.WLatch()
		pos, st, err = t.prepareLeaf(lf, key, itemLen)
	}
	if err == nil && st == leafUnsynced {
		lf.WUnlatch()
		if err := t.blockedSync(leaf.no); err != nil {
			return err
		}
		lf.WLatch()
		pos, st, err = t.prepareLeaf(lf, key, itemLen)
	}
	if err == nil && st == leafReady {
		// Reclaiming backups (or simply a stale fullness observation) made
		// room.
		if err = insertLeafAt(lf.Data, pos, key, value); err == nil {
			lf.MarkDirty()
		}
	}
	lf.WUnlatch()
	switch {
	case err != nil:
		return t.pageErr(mode, v, err)
	case st == leafReady:
		return nil
	case st != leafFull:
		// Only readOnly gets here: §3.5.1 verification repairs peer links.
		return errNeedsExclusive
	}

	// Structural change begins: hold the version odd until the new halves
	// are linked into the parent. Then place the key in the proper half
	// ("the new key whose insertion caused the split is added to P_b", §3.4
	// step 6).
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
	// insertLeaf checks for a duplicate again: a same-key insert with a
	// smaller value can slip into the half through the fast path between our
	// latch windows.
	if err = insertLeaf(tf.Data, key, value); err == nil {
		tf.MarkDirty()
	}
	tf.WUnlatch()
	tf.Unpin()
	if err != nil {
		return t.pageErr(mode, v, err)
	}
	return nil
}

// createRootLeaf initializes an empty tree with a single-key root leaf.
func (t *Tree) createRootLeaf(key, value []byte) error {
	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	defer metaFrame.Unpin()
	m := metaPage{metaFrame.Data}
	no, f, err := t.allocPage(nil, nil)
	if err != nil {
		return err
	}
	defer f.Unpin()
	t.initTreePage(f, 0)
	if err := insertLeaf(f.Data, key, value); err != nil {
		return err
	}
	f.MarkDirty()
	m.setRoot(no)
	m.setPrevRoot(0)
	m.setRootToken(f.Data.SyncToken())
	metaFrame.MarkDirty()
	return nil
}

// reclaimLatched applies the §3.4 reclaim decision to a write-latched page
// that is about to be modified and still holds backup keys:
//
//	(1) token == global:  the split happened in the current epoch; the
//	    backup keys are still the only durable copy, so the update must
//	    block for a sync first. Nothing is touched and true is returned: the
//	    sync flushes pages under their shared latches, so the caller lets go
//	    of this one, runs blockedSync, and asks again.
//	(2) last crash <= token < global: a sync has committed both halves;
//	    the backups are no longer needed and are reclaimed here.
//	(3) token < last crash: resolved during the descent (resolveBackups);
//	    whatever survives that resolution lands in case (1) or (2).
func (t *Tree) reclaimLatched(f *buffer.Frame) (unsynced bool) {
	p := f.Data
	if p.PrevNKeys() == 0 {
		return false
	}
	if t.protected() {
		if p.SyncToken() == t.counter.Current() {
			return true
		}
		t.obs.Count(obs.BackupReclaim)
	}
	reclaimBackups(p)
	f.MarkDirty()
	return false
}

// blockedSync is the forced sync of reclaim case (1). The caller holds
// splitMu or the exclusive lock, and no frame latch.
func (t *Tree) blockedSync(no uint32) error {
	t.obs.Eventf(obs.BlockedSync, no, "reclaim case 1: backups not yet durable; forcing sync")
	return t.syncLocked()
}

// ensureSafeForUpdate runs the §3.4 reclaim on the page at path[depth]
// before it is modified, blocking for the sync if it must. The first read
// runs unlatched: internal pages are only mutated under splitMu or the
// exclusive lock, one of which every caller holds. Only the reclaim itself
// — a page mutation visible to concurrent shared descents — takes the write
// latch.
func (t *Tree) ensureSafeForUpdate(path []pathEntry, depth int) error {
	f := path[depth].frame
	if f.Data.PrevNKeys() == 0 {
		return nil
	}
	f.WLatch()
	unsynced := t.reclaimLatched(f)
	f.WUnlatch()
	if !unsynced {
		return nil
	}
	if err := t.blockedSync(path[depth].no); err != nil {
		return err
	}
	f.WLatch()
	t.reclaimLatched(f)
	f.WUnlatch()
	return nil
}

// promo carries a completed split up to the parent: K2 = (sep -> highNo) is
// inserted after K1, and K1's child pointer is redirected to lowNo when the
// low half moved (shadow splits always move it; reorganization moves it
// when the new key landed in the low half).
type promo struct {
	sep    []byte
	lowNo  uint32
	highNo uint32
	// lowChanged: K1.childPtr must be patched to lowNo (step 5).
	lowChanged bool
	// prev/prevValid: the durable pre-split image for the shadow
	// algorithm's prevPtr bookkeeping (steps 2–3) and for the meta
	// page's previous-root pointer. prevValid is false when the split
	// page was itself created in the current epoch, in which case K1's
	// existing prevPtr (or the existing previous root) is reused.
	prev      uint32
	prevValid bool
	// level of the page that was split, for growRoot.
	level uint8
}

// splitPage splits the (full) page at path[depth] with the technique that
// governs its level, updates the parent (splitting it recursively if K2
// does not fit), and returns the promotion record so the caller can pick
// the half that receives its pending key. On return path[depth] is stale
// and must not be used except to unpin.
func (t *Tree) splitPage(path []pathEntry, depth int, hintKey []byte) (promo, error) {
	node := &path[depth]
	// Latch the page being split for the whole reorganization: shared-mode
	// readers must see it either whole or fully split, never mid-copy.
	// splitReorg swaps node.frame for the shadow replacement, so keep the
	// originally latched frame to unlatch.
	nf := node.frame
	nf.WLatch()
	pr, err := t.splitPageLatched(node, hintKey)
	nf.WUnlatch()
	if err != nil {
		return promo{}, err
	}
	// The parent update runs latch-free at this level; insertPromo and
	// growRoot take their own latches (and may block for a sync, which
	// must never happen under a frame latch).
	if depth == 0 {
		if err := t.growRoot(pr); err != nil {
			return promo{}, err
		}
	} else if err := t.insertPromo(path, depth-1, pr); err != nil {
		return promo{}, err
	}
	t.obs.Eventf(obs.SplitCommit, node.no, "halves %d/%d linked into parent", pr.lowNo, pr.highNo)
	return pr, nil
}

// splitPageLatched performs the page-local half of a split — choosing the
// separator and running the variant's technique — with the node's write
// latch held by the caller. It stores the split level in pr for growRoot.
func (t *Tree) splitPageLatched(node *pathEntry, hintKey []byte) (promo, error) {
	level := node.frame.Data.Level()
	items, err := liveItems(node.frame.Data)
	if err != nil {
		return promo{}, err
	}
	if len(items) < 2 {
		return promo{}, fmt.Errorf("btree: cannot split page %d with %d items", node.no, len(items))
	}
	mid, err := splitPoint(items)
	if err != nil {
		return promo{}, err
	}
	sep, err := itemKey(items[mid])
	if err != nil {
		return promo{}, err
	}
	sep = cloneBytes(sep)
	lowItems, highItems := items[:mid], items[mid:]

	t.splits.Add(1)
	var pr promo
	if t.splitUsesShadow(level) {
		pr, err = t.splitShadow(node, lowItems, highItems, sep)
	} else if t.variant == Normal {
		pr, err = t.splitNormal(node, lowItems, highItems, sep)
	} else {
		pr, err = t.splitReorg(node, lowItems, highItems, sep, hintKey)
	}
	if err != nil {
		return promo{}, err
	}
	pr.level = level
	return pr, nil
}

// splitPoint picks the split index balancing bytes, not key counts, so
// variable-length keys produce evenly filled halves.
func splitPoint(items [][]byte) (int, error) {
	total := 0
	for _, it := range items {
		total += len(it)
	}
	acc := 0
	for i, it := range items {
		acc += len(it)
		if acc*2 >= total {
			// Never produce an empty half.
			if i+1 >= len(items) {
				return len(items) - 1, nil
			}
			return i + 1, nil
		}
	}
	return len(items) / 2, nil
}

// growRoot creates a new root above a just-split old root (§3.3: "If the
// root page splits, a new root page is created containing two <key,data>
// pairs pointing to the two halves of the old root") and maintains the
// meta page's current/previous root pointers.
func (t *Tree) growRoot(pr promo) error {
	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	defer metaFrame.Unpin()
	m := metaPage{metaFrame.Data}

	no, f, err := t.allocPage(nil, nil)
	if err != nil {
		return err
	}
	defer f.Unpin()
	// The new root is invisible until the meta page names it, but latch it
	// anyway: a freshly recycled page number can still be reached through
	// stale pointers by a concurrent shared descent.
	f.WLatch()
	t.initTreePage(f, pr.level+1)
	shadow := f.Data.HasFlag(page.FlagShadow)
	prev := pr.prev
	if !pr.prevValid {
		prev = m.prevRoot()
	}
	entries := []internalItem{
		{sep: []byte{}, child: pr.lowNo, prev: prev},
		{sep: pr.sep, child: pr.highNo, prev: prev},
	}
	for i, e := range entries {
		off, err := f.Data.AddItem(encodeInternalItem(e, shadow))
		if err != nil {
			f.WUnlatch()
			return err
		}
		if err := f.Data.InsertSlot(i, off); err != nil {
			f.WUnlatch()
			return err
		}
	}
	f.MarkDirty()
	rootTok := f.Data.SyncToken()
	f.WUnlatch()

	// Shared descents read the root pointer and token under the meta
	// page's read latch; publish the new root under the write latch.
	metaFrame.WLatch()
	if pr.prevValid {
		m.setPrevRoot(pr.prev)
	}
	m.setRoot(no)
	m.setRootToken(rootTok)
	metaFrame.MarkDirty()
	metaFrame.WUnlatch()
	t.obs.Eventf(obs.RootSplit, no, "new root above halves %d/%d", pr.lowNo, pr.highNo)
	return nil
}

// insertPromo performs the parent update of §3.3 (steps 1–5), splitting the
// parent first when K2 does not fit.
func (t *Tree) insertPromo(path []pathEntry, depth int, pr promo) error {
	parent := &path[depth]

	// The parent is itself about to be modified: resolve any backup keys
	// it still holds (§3.4 reclaim check applies to every update).
	if err := t.ensureSafeForUpdate(path, depth); err != nil {
		return err
	}

	pp := parent.frame.Data
	shadow := pp.HasFlag(page.FlagShadow)
	enc := encodeInternalItem(internalItem{sep: pr.sep, child: pr.highNo, prev: pr.prev}, shadow)
	if pp.CanFit(len(enc)) {
		parent.frame.WLatch()
		err := t.applyPromo(parent.frame, parent.idx, pr)
		parent.frame.WUnlatch()
		return err
	}

	// Parent is full: split it (recursively updating the grandparent),
	// then apply K2 in whichever half now covers the separator.
	pPr, err := t.splitPage(path, depth, pr.sep)
	if err != nil {
		return err
	}
	targetNo := pPr.lowNo
	if bytes.Compare(pr.sep, pPr.sep) >= 0 {
		targetNo = pPr.highNo
	}
	tf, err := t.pool.Get(targetNo)
	if err != nil {
		return err
	}
	defer tf.Unpin()
	tf.WLatch()
	defer tf.WUnlatch()
	idx, err := internalSearch(tf.Data, pr.sep)
	if err != nil {
		return err
	}
	if idx < 0 {
		return fmt.Errorf("%w: split parent half %d is empty", ErrUnrecoverable, targetNo)
	}
	return t.applyPromo(tf, idx, pr)
}

// applyPromo executes the crash-careful parent update of §3.3 on the given
// page, where k1idx is the entry whose child was split:
//
//	(1) the new key K2 is allocated on the page (not yet visible),
//	(2) if the split page was durable, both K1's and K2's prevPtrs are
//	    pointed at it; (3) otherwise K2 reuses K1's prevPtr,
//	(4) K2 is linked into the line table with the two-step protocol,
//	(5) K1's childPtr is redirected to the new low half.
//
// A crash between any two steps leaves the page either unchanged, with an
// orphaned item (harmless), with a repairable duplicate line-table entry,
// or — after step 4 but before 5 — with K1 still naming the pre-split page,
// which the inter-page range check catches and repairs on first use.
//
// The caller holds f's write latch.
func (t *Tree) applyPromo(f *buffer.Frame, k1idx int, pr promo) error {
	pp := f.Data
	shadow := pp.HasFlag(page.FlagShadow)
	k2 := internalItem{sep: pr.sep, child: pr.highNo}
	if shadow {
		k1, err := internalEntry(pp, k1idx)
		if err != nil {
			return err
		}
		prev := k1.prev
		if pr.prevValid {
			prev = pr.prev
			if err := patchInternalPrev(pp, k1idx, prev); err != nil { // step 2
				return err
			}
		}
		k2.prev = prev // steps 2–3
	}
	off, err := pp.AddItem(encodeInternalItem(k2, shadow)) // step 1
	if err != nil {
		return err
	}
	pos, err := internalInsertPos(pp, k2.sep)
	if err != nil {
		return err
	}
	pp.ClearFlag(page.FlagLineClean)
	if err := pp.InsertSlot(pos, off); err != nil { // step 4
		return err
	}
	pp.AddFlag(page.FlagLineClean)
	if pr.lowChanged {
		if err := patchInternalChild(pp, k1idx, pr.lowNo); err != nil { // step 5
			return err
		}
	}
	f.MarkDirty()
	return nil
}
