package btree

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// pathEntry records one level of a root-to-leaf descent.
type pathEntry struct {
	no     uint32
	frame  *buffer.Frame // pinned for the lifetime of the path
	lo, hi []byte        // expected key range (nil = unbounded)
	idx    int           // entry index followed to the child below (-1 at the leaf)
}

// releasePath unpins every frame on the path and recycles the slice; the
// caller must not touch the path afterwards. Entry bounds that must
// outlive the release are cloned by their takers.
func releasePath(path []pathEntry) {
	for _, e := range path {
		e.frame.Unpin()
	}
	putPath(path)
}

// protected reports whether this variant performs crash detection at all.
func (t *Tree) protected() bool { return t.variant != Normal }

// descentMode is what a descent does with a page that fails a check.
type descentMode uint8

const (
	// readOnly touches nothing: a failed check is classified against the
	// structure version the caller snapshotted — errRetryShared when a
	// concurrent split can explain it, errNeedsExclusive when it is crash
	// damage. Legal under the shared tree lock, with or without splitMu.
	readOnly descentMode = iota
	// repairing fixes the page in place (repairRoot, repairChild,
	// fixIntraPage, resolveBackups) and walks on: recovery on first use,
	// inside the ordinary traversal. Legal only under the exclusive tree
	// lock — the repair code assumes a quiescent tree.
	repairing
)

// descent says where a root-to-leaf walk goes and what it may do there.
type descent struct {
	key  []byte
	pred bool // follow the last separator strictly below key: the leaf left of key's
	mode descentMode
	ver  uint64 // readOnly: the structure version failed checks are judged against
	path bool   // keep every level pinned and return them all
	// hint stops above the leaf: the leaf is hinted to the pool, not read,
	// and comes back by number and bounds with no frame. readOnly, without
	// path.
	hint bool
}

// descend is the one root-to-leaf walk (§3.3.1, §3.6). It holds one latch
// at a time and pins a child before the parent's latch drops; the parent
// stays pinned until the child has passed its checks, because repairing a
// child needs the entry that prescribes it. The meta page is walked as the
// parent of the root: its one "entry" names the root, prescribes the whole
// key space, and checks the root's token where a parent checks a range.
//
// The leaf is returned pinned and unlatched. Without d.path its bounds are
// staged in sc and die with it. With d.path every level is returned pinned
// (leaf last; releasePath lets go) and each level's bounds alias the pinned
// page above it: stable for a caller that holds splitMu or the exclusive
// lock, the only writers of internal pages. With d.hint the leaf is not
// read: its number and staged bounds come back with a nil frame. A nil leaf
// frame and a zero page number with a nil error mean there is no such leaf —
// the tree is empty, or (d.pred) holds no key below d.key.
func (t *Tree) descend(d descent, sc *descentScratch) (pathEntry, []pathEntry, error) {
	f, err := t.pool.Get(0)
	if err != nil {
		return pathEntry{}, nil, err
	}
	// f, no, lo, hi are the level the walk stands on — the meta page first —
	// pinned and read-latched; with d.path it is also path's last entry.
	var (
		no     uint32
		lo, hi []byte
		path   []pathEntry
		drops  = 0
	)
	f.RLatch()
	for depth := 0; ; {
		// Under the latch: which child next, and what is prescribed for it?
		p := f.Data
		var (
			it       internalItem
			cLo, cHi []byte
			rootTok  uint64
			idx      = -1
			level    = -1
		)
		if depth == 0 {
			m := metaPage{p}
			it.child, rootTok = m.root(), m.rootToken()
			if it.child == 0 {
				f.RUnlatch()
				break // empty tree
			}
		} else {
			if p.Type() == page.TypeLeaf {
				f.RUnlatch()
				if d.hint { // a root that is a leaf: read already
					f.Unpin()
					f = nil
				}
				return pathEntry{no: no, frame: f, lo: lo, hi: hi, idx: -1}, path, nil
			}
			switch {
			case p.Type() != page.TypeInternal || depth >= maxSharedDepth:
				// A foreign page, or a cycle left by damage.
				err = fmt.Errorf("%w: page %d of type %v at depth %d of a descent",
					ErrUnrecoverable, no, p.Type(), depth)
			case d.pred:
				idx, err = internalSearchPred(p, d.key)
			default:
				if idx, err = internalSearch(p, d.key); err == nil && idx < 0 {
					err = fmt.Errorf("%w: internal page %d is empty", ErrUnrecoverable, no)
				}
			}
			if err == nil && idx >= 0 {
				if it, err = internalEntry(p, idx); err == nil {
					cLo, cHi, err = childRange(p, idx, lo, hi)
				}
			}
			if err != nil {
				f.RUnlatch()
				err = t.pageErr(d.mode, d.ver, err)
				break
			}
			if idx < 0 {
				f.RUnlatch()
				break // d.pred: everything below this page is >= d.key
			}
			level = int(p.Level()) - 1
			if d.path {
				path[len(path)-1].idx = idx
			} else {
				// childRange returns slices into the latched page (or the
				// bounds staged one level up): stage them into the scratch's
				// other buffer pair before the latch drops.
				cLo, cHi = sc.stage(cLo, cHi)
			}
			if d.hint && level == 0 {
				f.RUnlatch()
				f.Unpin()
				t.pool.Hint(it.child)
				return pathEntry{no: it.child, lo: cLo, hi: cHi, idx: -1}, nil, nil
			}
		}
		cf, gerr := t.pool.Get(it.child) // pin the child before the parent's latch drops
		f.RUnlatch()
		if gerr != nil {
			err = gerr
			if errors.Is(gerr, buffer.ErrQuarantined) {
				if d.mode == readOnly {
					err = errNeedsExclusive // the repairing descent names the range
				} else {
					// Attach the prescribed subtree range to the pool-level
					// error (and record it in the registry for scans and the
					// supervisor).
					t.pool.Quarantine().SetRange(it.child, cLo, cHi)
					err = asRangeError(it.child, cLo, cHi, gerr)
				}
			}
			break
		}
		cf.RLatch()
		if sound, linkOK := t.checkPage(d.mode, cf.Data, depth == 0, rootTok, level, cLo, cHi); !sound {
			// The latch drops and the mode decides: classify the failure, or
			// re-execute what the crash interrupted — latch-free, since
			// nobody else is in the tree and a repair may itself descend or
			// sync.
			cf.RUnlatch()
			if d.mode == readOnly {
				err = t.classify(d.ver)
			} else {
				parent := pathEntry{no: no, frame: f, lo: lo, hi: hi, idx: idx}
				err = t.mend(&parent, it, cf, cLo, cHi, linkOK)
			}
			if err != nil {
				cf.Unpin()
				if errors.Is(err, errEntryDropped) && drops < 8 {
					// The repair removed the entry we were following;
					// re-select on the updated parent, staging the new
					// selection's bounds where the dropped one's were.
					drops++
					if !d.path {
						sc.unstage()
					}
					f.RLatch()
					continue
				}
				break
			}
			cf.RLatch()
		}
		// The child is sound and latched: step down.
		if depth == 0 || !d.path {
			f.Unpin()
		}
		f, no, lo, hi = cf, it.child, cLo, cHi
		if d.path {
			if path == nil {
				path = newPath()
			}
			path = append(path, pathEntry{no: no, frame: f, lo: lo, hi: hi, idx: -1})
		}
		depth++
	}
	if path != nil {
		releasePath(path)
	} else {
		f.Unpin()
	}
	return pathEntry{}, nil, err
}

// checkPage runs the descent-time checks on a latched page, touching
// nothing: the §3.3.1 link check (the root's token against the meta page's;
// any other child's shape, level and key range against what its parent entry
// prescribes), the §3.3.2 line-table check, and the §3.4 check for backup
// keys from before the last crash. linkOK reports the first of the three
// alone: it is what repairRoot and repairChild mend.
func (t *Tree) checkPage(mode descentMode, p page.Page, isRoot bool, rootTok uint64, level int, lo, hi []byte) (sound, linkOK bool) {
	linkOK = true
	if t.protected() && !t.opts.noRangeCheck {
		switch {
		case isRoot:
			linkOK = !p.IsZeroed() && p.Valid() && p.SyncToken() == rootTok
		case level < 0:
			linkOK = false
		default:
			linkOK, _ = t.childConsistent(p, uint8(level), lo, hi)
		}
	} else if mode == readOnly {
		// Even an unchecked tree needs shape validation in shared mode: a
		// stale pointer can reach a freed or recycled page mid-split.
		linkOK = !p.IsZeroed() && p.Valid()
	}
	// A page whose line-clean flag is set was never snapshotted in the
	// middle of a line-table update, so the O(n) duplicate scan is skipped —
	// detection happens on first use of a damaged page, not on every access.
	// A repairing descent scans every unflagged page once, in fixIntraPage,
	// which caches a clean verdict in the flag; a read-only one cannot.
	linesSuspect := t.protected() && !p.IsZeroed() && !p.HasFlag(page.FlagLineClean)
	if mode == readOnly {
		linesSuspect = linesSuspect && p.FindDuplicateSlot() >= 0
	}
	return linkOK && !linesSuspect && !t.backupsPending(p), linkOK
}

// mend is the repairing descent's answer to a child that failed checkPage:
// recovery on first use, as a branch of the ordinary page fix. parent is the
// entry that prescribes the child f (the meta page for the root), it the
// item followed, [lo, hi) the prescribed range. The caller holds the
// exclusive tree lock and no latch.
func (t *Tree) mend(parent *pathEntry, it internalItem, f *buffer.Frame, lo, hi []byte, linkOK bool) error {
	isRoot := parent.no == 0
	if !linkOK {
		var err error
		if isRoot {
			err = t.repairRoot(parent.frame, f)
		} else {
			err = t.repairChild(parent, parent.idx, it, f, lo, hi)
		}
		if errors.Is(err, ErrUnrecoverable) || errors.Is(err, buffer.ErrQuarantined) {
			// Repair has no durable source (or its source is itself
			// quarantined): withdraw the subtree instead of failing the
			// DB, and degrade gracefully. A root takes the whole key space
			// with it: critical, so the health-state machine forces
			// ReadOnly.
			return t.quarantineSubtree(it.child, lo, hi, isRoot, err)
		}
		if err != nil {
			return err
		}
	}
	// Repair interrupted line-table updates on sight (§3.3.2).
	t.fixIntraPage(f)
	// Reorg: a page still carrying backup keys from before the most recent
	// crash must resolve them before it can be used (§3.4, free-space
	// reclaim case 3) — and before a lookup can trust its live key set. The
	// root's range is the whole key space, so its backups (the pre-split
	// page of an uncommitted root split) fold straight back in, cases
	// (a)/(b) at the top of the tree.
	if t.backupsPending(f.Data) {
		if err := t.resolveBackups(parent, parent.idx, f, lo, hi); err != nil {
			return err
		}
		if isRoot {
			// The fold-back restamped the root; the meta page's token
			// follows it.
			metaPage{parent.frame.Data}.setRootToken(f.Data.SyncToken())
			parent.frame.MarkDirty()
		}
	}
	return nil
}

// backupsPending reports a page still carrying backup keys from before the
// most recent crash: whether the split that made them committed is not yet
// known (§3.4).
func (t *Tree) backupsPending(p page.Page) bool {
	return t.protected() && p.PrevNKeys() != 0 && p.SyncToken() < t.counter.LastCrash()
}

// fixIntraPage repairs duplicate line-table offsets left by an interrupted
// insert (§3.3.1–3.3.2) and caches a clean verdict in the line-clean flag.
func (t *Tree) fixIntraPage(f *buffer.Frame) {
	if !t.protected() || f.Data.IsZeroed() || f.Data.HasFlag(page.FlagLineClean) {
		return
	}
	if f.Data.FindDuplicateSlot() >= 0 {
		n := f.Data.RepairDuplicates()
		t.obs.Eventf(obs.RepairIntraPage, uint32(f.PageNo()), "%d duplicate line-table entries removed", n)
	}
	f.Data.AddFlag(page.FlagLineClean)
	f.MarkDirty()
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

// Lookup returns the value stored under key. Concurrent lookups run in
// parallel; if a crash left damage on the path, the lookup upgrades to the
// exclusive lock and runs again in repairing mode — recovery on first use.
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
			val, err = t.lookup(key, dst, readOnly, ver)
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
		return val, err
	}
	// The same body once more under the exclusive lock, where it may repair
	// and whatever it then returns is final.
	t.obs.Count(obs.ExclusiveFallback)
	if err := t.lockExclusive(); err != nil {
		return nil, err
	}
	defer t.mu.Unlock()
	return t.lookup(key, dst, repairing, t.structVer.Load())
}

// lookup is the lookup body: one descent, a latched leaf search, and — when
// a concurrent split may have moved the key right — a bounded trusted-peer
// chase before retrying. On a hit the value is appended to dst (which may
// be nil), so a caller recycling its buffer pays no allocation. Under the
// exclusive lock the version cannot move, so a miss is final at once.
func (t *Tree) lookup(key, dst []byte, mode descentMode, v uint64) ([]byte, error) {
	sc := getDescent()
	defer putDescent(sc)
	leaf, _, err := t.descend(descent{key: key, mode: mode, ver: v}, sc)
	if err != nil {
		return nil, err
	}
	f, curNo := leaf.frame, leaf.no
	if f == nil {
		if t.structStable(v) {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		return nil, errRetryShared
	}
	for hop := 0; ; hop++ {
		f.RLatch()
		p := f.Data
		pos, found, err := leafSearch(p, key)
		if err == nil && found {
			var val []byte
			if _, val, err = decodeLeafItem(p.Item(pos)); err == nil {
				out := append(dst, val...)
				f.RUnlatch()
				f.Unpin()
				return out, nil // positive results are authoritative
			}
		}
		if err != nil {
			f.RUnlatch()
			f.Unpin()
			return nil, t.pageErr(mode, v, err)
		}
		if t.structStable(v) {
			f.RUnlatch()
			f.Unpin()
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		// The structure moved under us. If the key sorts past this
		// page's largest key a split may have carried it right: chase
		// the peer link while the §3.5.1 tokens vouch for it.
		rp := p.RightPeer()
		if hop >= maxChaseHops || p.NKeys() == 0 || pos < p.NKeys() || rp == 0 {
			f.RUnlatch()
			f.Unpin()
			return nil, errRetryShared
		}
		next := t.hopRight(curNo, rp, p.RightPeerToken(), f)
		f.Unpin()
		if next == nil {
			return nil, errRetryShared
		}
		curNo, f = rp, next
	}
}

// HintLeaf asks the buffer pool to start reading the leaf that covers key and
// returns that leaf's key range [lo, hi) (nil = unbounded) for the caller to
// keep: a key inside it is on the same leaf and needs no hint of its own. The
// descent reads what a lookup of key reads except the leaf, and changes
// nothing. A hint is advice (buffer.Pool.Hint): of a resident leaf it costs a
// lookup, and ok is false when the descent has none to give — an empty tree,
// a split in flight, a page only a repairing descent may judge.
func (t *Tree) HintLeaf(key []byte) (lo, hi []byte, ok bool) {
	sc := getDescent()
	defer putDescent(sc)
	leaf, ok := t.hintLeaf(key, sc)
	if !ok {
		return nil, nil, false
	}
	return cloneBytes(leaf.lo), cloneBytes(leaf.hi), true
}

// hintLeaf is HintLeaf with the leaf's bounds staged in sc.
func (t *Tree) hintLeaf(key []byte, sc *descentScratch) (pathEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.structVer.Load()
	if v%2 != 0 {
		return pathEntry{}, false
	}
	leaf, _, err := t.descend(descent{key: key, mode: readOnly, ver: v, hint: true}, sc)
	return leaf, err == nil && leaf.no != 0
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
