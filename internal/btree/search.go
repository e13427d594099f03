package btree

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// errNeedsRepair is returned by read-only descents that detect an
// inconsistency: the caller upgrades to the exclusive lock and retries with
// repair enabled. This mirrors the paper's §3.6 rule of traversing a
// suspect link a second time before treating the inconsistency as genuine.
var errNeedsRepair = errors.New("btree: inconsistency detected, repair required")

// pathEntry records one level of a root-to-leaf descent.
type pathEntry struct {
	no     uint32
	frame  *buffer.Frame // pinned for the lifetime of the path
	lo, hi []byte        // expected key range (nil = unbounded)
	idx    int           // entry index followed to the child below (-1 at the leaf)
}

// releasePath unpins every frame on the path and recycles the slice; the
// caller must not touch the path afterwards. Entry bounds that must
// outlive the release are cloned by their takers (they are independent
// heap bytes, so value copies of an entry stay valid).
func releasePath(path []pathEntry) {
	for _, e := range path {
		e.frame.Unpin()
	}
	putPath(path)
}

// protected reports whether this variant performs crash detection at all.
func (t *Tree) protected() bool { return t.variant != Normal }

// getRoot pins and returns the meta frame and the verified root frame.
// rootNo is 0 for an empty tree (rootFrame nil; metaFrame still pinned).
// With repair false, a lost root yields errNeedsRepair.
func (t *Tree) getRoot(repair bool) (metaFrame *buffer.Frame, rootFrame *buffer.Frame, rootNo uint32, err error) {
	metaFrame, err = t.pool.Get(0)
	if err != nil {
		return nil, nil, 0, err
	}
	m := metaPage{metaFrame.Data}
	rootNo = m.root()
	if rootNo == 0 {
		return metaFrame, nil, 0, nil
	}
	rootFrame, err = t.pool.Get(rootNo)
	if err != nil {
		metaFrame.Unpin()
		if errors.Is(err, buffer.ErrQuarantined) {
			// The root covers the whole key space; surface that range.
			return nil, nil, 0, asRangeError(rootNo, nil, nil, err)
		}
		return nil, nil, 0, err
	}
	if t.protected() && !t.opts.DisableRangeCheck {
		t.Stats.RangeChecks.Add(1)
		bad := rootFrame.Data.IsZeroed() || !rootFrame.Data.Valid() ||
			rootFrame.Data.SyncToken() != m.rootToken()
		if bad {
			if !repair {
				rootFrame.Unpin()
				metaFrame.Unpin()
				return nil, nil, 0, errNeedsRepair
			}
			if err := t.repairRoot(metaFrame, rootFrame); err != nil {
				rootFrame.Unpin()
				metaFrame.Unpin()
				if errors.Is(err, ErrUnrecoverable) || errors.Is(err, buffer.ErrQuarantined) {
					// A root with no durable source takes the whole key
					// space down with it: quarantine as critical so the
					// health-state machine forces ReadOnly.
					return nil, nil, 0, t.quarantineSubtree(rootNo, nil, nil, true, err)
				}
				return nil, nil, 0, err
			}
		}
	}
	// Repair interrupted line-table updates on sight (§3.3.2).
	if err := t.fixIntraPage(rootFrame, repair); err != nil {
		rootFrame.Unpin()
		metaFrame.Unpin()
		return nil, nil, 0, err
	}
	// A root still carrying backup keys from before the last crash is
	// the pre-split page of an uncommitted root split: its range is the
	// whole key space, so the backups fold straight back in (§3.4 cases
	// (a)/(b) at the top of the tree).
	if t.protected() && rootFrame.Data.PrevNKeys() != 0 &&
		rootFrame.Data.SyncToken() < t.counter.LastCrash() {
		if !repair {
			rootFrame.Unpin()
			metaFrame.Unpin()
			return nil, nil, 0, errNeedsRepair
		}
		caseMetric := t.reorgCaseAB(rootFrame.Data)
		if err := t.mergeBackupsInto(rootFrame); err != nil {
			rootFrame.Unpin()
			metaFrame.Unpin()
			return nil, nil, 0, err
		}
		t.Stats.RepairsInterPage.Add(1)
		t.obs.Eventf(caseMetric, rootNo, "uncommitted root split; backups folded back")
		metaPage{metaFrame.Data}.setRootToken(rootFrame.Data.SyncToken())
		metaFrame.MarkDirty()
	}
	return metaFrame, rootFrame, rootNo, nil
}

// fixIntraPage detects and (when permitted) repairs duplicate line-table
// offsets left by an interrupted insert (§3.3.1–3.3.2).
func (t *Tree) fixIntraPage(f *buffer.Frame, repair bool) error {
	if !t.protected() || f.Data.IsZeroed() {
		return nil
	}
	// A page whose line-clean flag is set was never snapshotted in the
	// middle of a line-table update, so the O(n) duplicate scan is
	// skipped — detection happens on first use of a damaged page, not on
	// every access.
	if f.Data.HasFlag(page.FlagLineClean) {
		return nil
	}
	if f.Data.FindDuplicateSlot() < 0 {
		f.Data.AddFlag(page.FlagLineClean)
		f.MarkDirty()
		return nil
	}
	if !repair {
		return errNeedsRepair
	}
	n := f.Data.RepairDuplicates()
	t.Stats.RepairsIntraPage.Add(uint64(n))
	t.obs.Eventf(obs.RepairIntraPage, uint32(f.PageNo()), "%d duplicate line-table entries removed", n)
	f.Data.AddFlag(page.FlagLineClean)
	f.MarkDirty()
	return nil
}

// descendPath walks from the root to the leaf whose range contains key,
// verifying each parent→child link on the way (§3.3.1) and repairing what
// it finds when repair is true. Every frame on the returned path is pinned
// (the paper's §3.6 pin-before-release discipline, held for the whole
// operation because writers are exclusive here).
//
// A nil path with nil error means the tree is empty.
func (t *Tree) descendPath(key []byte, repair bool) ([]pathEntry, error) {
	metaFrame, rootFrame, rootNo, err := t.getRoot(repair)
	if err != nil {
		return nil, err
	}
	metaFrame.Unpin()
	if rootNo == 0 {
		return nil, nil
	}
	path := append(newPath(), pathEntry{no: rootNo, frame: rootFrame, lo: nil, hi: nil, idx: -1})
	for {
		cur := &path[len(path)-1]
		p := cur.frame.Data
		if p.Type() == page.TypeLeaf {
			return path, nil
		}
		if p.Type() != page.TypeInternal {
			releasePath(path)
			return nil, fmt.Errorf("%w: page %d has type %v on the descent path",
				ErrUnrecoverable, cur.no, p.Type())
		}
		var childFrame *buffer.Frame
		var childNo uint32
		var cLo, cHi []byte
		for attempt := 0; ; attempt++ {
			idx, err := internalSearch(p, key)
			if err != nil {
				releasePath(path)
				return nil, err
			}
			if idx < 0 {
				releasePath(path)
				return nil, fmt.Errorf("%w: internal page %d is empty", ErrUnrecoverable, cur.no)
			}
			cur.idx = idx
			childFrame, childNo, cLo, cHi, err = t.loadChild(cur, idx, repair)
			if errors.Is(err, errEntryDropped) && attempt < 8 {
				// The repair removed the entry we were following;
				// re-select on the updated parent.
				continue
			}
			if err != nil {
				releasePath(path)
				return nil, err
			}
			break
		}
		path = append(path, pathEntry{no: childNo, frame: childFrame, lo: cLo, hi: cHi, idx: -1})
	}
}

// loadChild reads, verifies, and (when repair is true) repairs the child at
// entry idx of the internal page held by parent. It returns a pinned frame.
func (t *Tree) loadChild(parent *pathEntry, idx int, repair bool) (*buffer.Frame, uint32, []byte, []byte, error) {
	p := parent.frame.Data
	it, err := internalEntry(p, idx)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	cLo, cHi, err := childRange(p, idx, parent.lo, parent.hi)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	childFrame, err := t.pool.Get(it.child)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			// Attach the prescribed subtree range to the pool-level error
			// (and record it in the registry for scans and the supervisor).
			t.pool.Quarantine().SetRange(it.child, cLo, cHi)
			return nil, 0, nil, nil, asRangeError(it.child, cLo, cHi, err)
		}
		return nil, 0, nil, nil, err
	}
	if t.protected() && !t.opts.DisableRangeCheck {
		t.Stats.RangeChecks.Add(1)
		consistent, err := t.childConsistent(childFrame.Data, p.Level()-1, cLo, cHi)
		if err != nil {
			childFrame.Unpin()
			return nil, 0, nil, nil, err
		}
		if !consistent {
			if !repair {
				childFrame.Unpin()
				return nil, 0, nil, nil, errNeedsRepair
			}
			if err := t.repairChild(parent, idx, it, childFrame, cLo, cHi); err != nil {
				childFrame.Unpin()
				if errors.Is(err, ErrUnrecoverable) || errors.Is(err, buffer.ErrQuarantined) {
					// Repair has no durable source (or its source is
					// itself quarantined): withdraw the subtree instead
					// of failing the DB, and degrade gracefully.
					return nil, 0, nil, nil, t.quarantineSubtree(it.child, cLo, cHi, false, err)
				}
				return nil, 0, nil, nil, err
			}
		}
	}
	if err := t.fixIntraPage(childFrame, repair); err != nil {
		childFrame.Unpin()
		return nil, 0, nil, nil, err
	}
	// Reorg: a page still carrying backup keys from before the most
	// recent crash must resolve them before it can be used (§3.4,
	// free-space reclaim case 3) — and before a lookup can trust its
	// live key set.
	if t.protected() && childFrame.Data.PrevNKeys() != 0 &&
		childFrame.Data.SyncToken() < t.counter.LastCrash() {
		if !repair {
			childFrame.Unpin()
			return nil, 0, nil, nil, errNeedsRepair
		}
		if err := t.resolveBackups(parent, idx, childFrame, cLo, cHi); err != nil {
			childFrame.Unpin()
			return nil, 0, nil, nil, err
		}
	}
	return childFrame, it.child, cLo, cHi, nil
}

// childConsistent implements the inter-page check of §3.3.1: the child must
// be an initialized page of the right type and level whose smallest and
// largest keys fall inside the range the parent prescribes. A page of all
// zeros — never written before the crash — is inconsistent by definition.
func (t *Tree) childConsistent(child page.Page, level uint8, lo, hi []byte) (bool, error) {
	if child.IsZeroed() || !child.Valid() {
		return false, nil
	}
	wantType := page.TypeLeaf
	if level > 0 {
		wantType = page.TypeInternal
	}
	if child.Type() != wantType || child.Level() != level {
		return false, nil
	}
	minKey, maxKey, ok, err := minMaxKeys(child)
	if err != nil {
		// Structurally unreadable items: treat as inconsistent and let
		// repair rebuild the page rather than failing the operation.
		return false, nil
	}
	if !ok {
		// An empty page cannot be range-checked; pages produced by
		// splits are never empty, so this is a page legitimately
		// emptied by deletions.
		return true, nil
	}
	if !keyInRange(minKey, lo, hi) || !keyInRange(maxKey, lo, hi) {
		return false, nil
	}
	return true, nil
}

// findLeaf performs a read-only descent and returns the pinned leaf frame
// and its expected range; ok is false for an empty tree.
func (t *Tree) findLeaf(key []byte, repair bool) (f *buffer.Frame, no uint32, lo, hi []byte, ok bool, err error) {
	path, err := t.descendPath(key, repair)
	if err != nil {
		return nil, 0, nil, nil, false, err
	}
	if path == nil {
		return nil, 0, nil, nil, false, nil
	}
	leaf := path[len(path)-1]
	// Keep only the leaf pinned; the entry value copy keeps its cloned
	// bounds valid after the slice is recycled.
	for _, e := range path[:len(path)-1] {
		e.frame.Unpin()
	}
	putPath(path)
	return leaf.frame, leaf.no, leaf.lo, leaf.hi, true, nil
}

// Lookup returns the value stored under key. Concurrent lookups run in
// parallel; if a crash left damage on the path, the lookup upgrades to the
// exclusive lock, repairs, and retries — recovery on first use.
func (t *Tree) Lookup(key []byte) ([]byte, error) {
	return t.LookupInto(key, nil)
}

// LookupInto is Lookup with caller-owned result storage: the value is
// appended to dst (which may be nil) and the extended slice returned. A
// caller that recycles dst across calls makes a warm hit allocation-free;
// Lookup itself is LookupInto with a nil dst.
func (t *Tree) LookupInto(key, dst []byte) ([]byte, error) {
	if err := validateKey(key); err != nil {
		return nil, err
	}
	t.Stats.Lookups.Add(1)
	for attempt := 0; attempt < maxSharedRetries; attempt++ {
		t.mu.RLock()
		ver := t.structVer.Load()
		var (
			val []byte
			err error
		)
		if ver%2 != 0 {
			err = errRetryShared // split in flight: snapshot again
		} else {
			val, err = t.lookupShared(key, dst, ver)
		}
		t.mu.RUnlock()
		if errors.Is(err, errRetryShared) {
			t.obs.Count(obs.LatchRetry)
			retryBackoff(attempt)
			continue
		}
		if errors.Is(err, errNeedsExclusive) || errors.Is(err, errNeedsRepair) ||
			errors.Is(err, buffer.ErrQuarantined) {
			// Quarantine errors fall through too: the exclusive descent
			// attaches the prescribed key range to the typed error.
			break
		}
		return val, err
	}
	// Fall back to the exclusive path, which may repair.
	t.obs.Count(obs.ExclusiveFallback)
	if err := t.lockExclusive(); err != nil {
		return nil, err
	}
	defer t.mu.Unlock()
	val, err := t.lookupLocked(key, true)
	if err != nil || dst == nil {
		return val, err
	}
	return append(dst, val...), nil
}

func (t *Tree) lookupLocked(key []byte, repair bool) ([]byte, error) {
	f, _, _, _, ok, err := t.findLeaf(key, repair)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	defer f.Unpin()
	pos, found, err := leafSearch(f.Data, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	_, v, err := decodeLeafItem(f.Data.Item(pos))
	if err != nil {
		return nil, err
	}
	return cloneBytes(v), nil
}

// Contains reports whether key is present.
func (t *Tree) Contains(key []byte) (bool, error) {
	_, err := t.Lookup(key)
	if errors.Is(err, ErrKeyNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func validateKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeySize {
		return fmt.Errorf("%w: key of %d bytes", ErrKeyTooLarge, len(key))
	}
	return nil
}

func validateValue(value []byte) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: value of %d bytes", ErrKeyTooLarge, len(value))
	}
	return nil
}
