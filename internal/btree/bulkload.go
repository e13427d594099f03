package btree

// Bottom-up bulk load and wholesale reconstruction. The paper's recovery
// story is incremental repair-on-first-use (§3.3/§3.4); the literature it
// anchors asks the complementary question — when is rebuilding the whole
// index from the heap cheaper than repairing it lazily (Kwon et al.,
// "Compressed Key Sort and Fast Index Reconstruction", arXiv 2009.11543)?
// This file supplies the fast-reconstruction half: sort the input run,
// pack leaves at a fill factor, chain the Lehman-Yao right-links as pages
// are emitted, and build each parent level in one pass over its children's
// separators. Pages stream to storage through Pool.WriteBypass, so a
// million-key load neither installs frames nor evicts the working set,
// and the disk seals every image with the format-v2 checksum as usual.
//
// Crash safety needs no new machinery: every page of the new structure is
// written and made durable *before* the meta page names its root, so the
// load commits or vanishes with the single durable root-pointer install —
// the same atom §3.3 relies on for root splits. A crash at any sync point
// leaves the old root (or the empty tree) served, never a torn hybrid.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/page"
)

// ErrNotEmpty is returned by BulkLoad when the tree already has a root;
// use BulkReplace to rebuild over existing contents.
var ErrNotEmpty = errors.New("btree: bulk load requires an empty tree")

// Item is one <key,value> pair fed to the bulk loader.
type Item struct {
	Key   []byte
	Value []byte
}

// DefaultFillFactor is the fraction of each page's item space the loader
// fills. Leaving headroom keeps the first trickle of post-load inserts from
// splitting every page they touch.
const DefaultFillFactor = 0.90

// LoadStats describes what a bulk load built.
type LoadStats struct {
	Keys       int    // distinct keys loaded
	Duplicates int    // input items dropped as duplicate keys (first kept)
	Leaves     int    // leaf pages written
	Internal   int    // internal pages written
	Levels     int    // tree height in levels, leaves included
	Root       uint32 // published root page
}

// BulkLoad builds the tree bottom-up from items, which need not be sorted;
// duplicate keys keep their first occurrence (matching the insert path,
// where later duplicates fail with ErrDuplicateKey). The tree must be
// empty. On return the loaded tree is durable: the root is published only
// after every page below it has been synced, and the load is a no-op on
// any earlier crash.
func (t *Tree) BulkLoad(items []Item) (LoadStats, error) {
	return t.bulkLoad(items, DefaultFillFactor)
}

// bulkLoad is BulkLoad packing each page to fill factor ff, in [0.5, 1.0].
func (t *Tree) bulkLoad(items []Item, ff float64) (LoadStats, error) {
	if err := t.lockExclusive(); err != nil {
		return LoadStats{}, err
	}
	defer t.mu.Unlock()

	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return LoadStats{}, err
	}
	if root := (metaPage{metaFrame.Data}).root(); root != 0 {
		metaFrame.Unpin()
		return LoadStats{}, fmt.Errorf("%w: root is page %d", ErrNotEmpty, root)
	}
	metaFrame.Unpin()

	stats, rootNo, rootTok, err := t.bulkBuild(items, ff)
	if err != nil || rootNo == 0 {
		return stats, err
	}
	if err := t.publishRoot(rootNo, rootTok); err != nil {
		return stats, err
	}
	return stats, nil
}

// BulkReplace rebuilds the tree's contents from items and atomically swaps
// the new structure in: the old root keeps serving until the new one is
// durable, then a single meta-page install moves the tree over. Old pages
// are released to the freelist once the swap is durable when the old
// structure is still walkable; if it is too damaged to enumerate (the
// rebuild use case), they are left for VacuumIndex to reclaim. Quarantine
// entries for non-meta pages are released: the damage they describe is no
// longer part of the served tree.
func (t *Tree) BulkReplace(items []Item) (LoadStats, error) {
	if err := t.lockExclusive(); err != nil {
		return LoadStats{}, err
	}
	defer t.mu.Unlock()

	t.obs.Count(obs.RebuildRun)

	// Enumerate the old structure before anything moves. A walk error is
	// not fatal — a damaged old tree is exactly why callers rebuild — it
	// just forfeits eager page reclamation.
	var old []oldPage
	_, walkErr := t.walkReachable(func(no uint32, lo, hi []byte) {
		old = append(old, oldPage{no: no, lo: cloneBytes(lo), hi: cloneBytes(hi)})
	})

	stats, rootNo, rootTok, err := t.bulkBuild(items, DefaultFillFactor)
	if err != nil {
		return stats, err
	}
	t.obs.CountN(obs.RebuildKeys, uint64(stats.Keys))
	if err := t.publishRoot(rootNo, rootTok); err != nil {
		return stats, err
	}
	t.obs.Eventf(obs.RebuildSwap, rootNo, "rebuilt root published, %d keys in %d pages",
		stats.Keys, stats.Leaves+stats.Internal)
	t.obs.Count(obs.RebuildSwap)

	// The swap is durable; the old structure is unreachable. Its damage
	// no longer matters, and its pages (when enumerable) are free once
	// the next sync confirms no stale root can resurrect them — which
	// publishRoot's sync already did, but freeAfterSync keeps the single
	// freeing discipline every other path uses.
	for _, q := range t.pool.Quarantine().List() {
		if q.PageNo != 0 {
			t.pool.ReleaseQuarantine(q.PageNo)
		}
	}
	if walkErr == nil {
		for _, e := range old {
			t.pool.Drop(e.no)
			t.freeAfterSync(e.no, e.lo, e.hi)
		}
	}
	return stats, nil
}

// publishRoot makes every bypass-written page durable, then installs the
// new root in the meta page and syncs again. The two sync points bracket
// the single atom: a crash before the second leaves the old root; after
// it, the new tree is complete by construction.
func (t *Tree) publishRoot(rootNo uint32, rootTok uint64) error {
	if err := t.pool.SyncAll(); err != nil {
		return err
	}
	metaFrame, err := t.pool.Get(0)
	if err != nil {
		return err
	}
	m := metaPage{metaFrame.Data}
	metaFrame.WLatch()
	m.setRoot(rootNo)
	m.setPrevRoot(0)
	m.setRootToken(rootTok)
	metaFrame.MarkDirty()
	metaFrame.WUnlatch()
	metaFrame.Unpin()
	return t.syncLocked()
}

// bulkBuilder carries the per-load state shared by every level.
type bulkBuilder struct {
	t      *Tree
	tok    uint64 // sync token stamped on every page and peer link
	budget int    // target bytes of item space per page
	stats  LoadStats
}

func (b *bulkBuilder) alloc() uint32 {
	no := b.t.nextNew
	b.t.nextNew++
	return no
}

// bulkBuild sorts, dedups, and packs items into a fresh subtree, returning
// its root. Nothing is published: every page lands in fresh page numbers
// via WriteBypass and stays unreachable until the caller installs the root.
func (t *Tree) bulkBuild(items []Item, ff float64) (LoadStats, uint32, uint64, error) {
	for _, it := range items {
		if err := validateKey(it.Key); err != nil {
			return LoadStats{}, 0, 0, err
		}
		if err := validateValue(it.Value); err != nil {
			return LoadStats{}, 0, 0, err
		}
	}
	// Bulk input is typically an already-sorted run (a heap scan of an
	// ordered load, a merged spool): a linear pre-check then uses the
	// caller's slice read-only, skipping both the O(n log n) sort and a
	// defensive copy that would dominate large loads. Unsorted input is
	// sorted on a copy of the slice header so the caller's order survives;
	// stable keeps the first of each duplicate run, matching what the
	// insert path would have kept while rejecting the rest.
	run := items
	if !sort.SliceIsSorted(run, func(i, j int) bool { return keyLess(run[i].Key, run[j].Key) }) {
		run = make([]Item, len(items))
		copy(run, items)
		sort.SliceStable(run, func(i, j int) bool { return keyLess(run[i].Key, run[j].Key) })
	}

	fresh := page.New()
	fresh.Init(page.TypeLeaf, 0)
	b := &bulkBuilder{t: t, tok: t.counter.Current(), budget: int(ff * float64(fresh.FreeSpace()))}

	entries, err := b.packLeaves(run)
	if err != nil {
		return b.stats, 0, 0, err
	}
	if len(entries) == 0 {
		return b.stats, 0, 0, nil // empty load: the tree stays empty
	}
	level := uint8(1)
	for len(entries) > 1 {
		if entries, err = b.packInternal(level, entries); err != nil {
			return b.stats, 0, 0, err
		}
		b.t.obs.Count(obs.LoadLevel)
		level++
	}
	b.stats.Levels = int(level)
	b.stats.Root = entries[0].child
	return b.stats, entries[0].child, b.tok, nil
}

// pageRun packs one level of the tree left to right, reusing a single
// in-memory page buffer: a page is sealed and streamed to storage the
// moment its right neighbor's number is known, so the loader holds O(1)
// pages per level regardless of input size.
type pageRun struct {
	b     *bulkBuilder
	level uint8
	buf   page.Page
	no    uint32
	n     int    // items on the open page
	used  int    // item-space bytes consumed on the open page
	first []byte // separator the open page will promote to its parent
	ents  []internalItem
	open  bool
}

func newPageRun(b *bulkBuilder, level uint8) *pageRun {
	return &pageRun{b: b, level: level, buf: page.New()}
}

func (r *pageRun) init() {
	typ := page.TypeLeaf
	if r.level > 0 {
		typ = page.TypeInternal
	}
	r.buf.Init(typ, r.level)
	if r.b.t.pageIsShadow(r.level) {
		r.buf.AddFlag(page.FlagShadow)
	}
	r.buf.AddFlag(page.FlagLineClean)
	r.buf.SetSyncToken(r.b.tok)
	r.n, r.used = 0, 0
	r.open = true
}

// place reserves room for one item of plen payload bytes, closing the open
// page first when the fill-factor budget says so, and hands the payload
// slice back for in-place encoding. first is the separator this item would
// promote if it opens a new page.
func (r *pageRun) place(plen int, first []byte) ([]byte, error) {
	// Each item costs its payload plus the 2-byte item length prefix and
	// the 2-byte line-table slot; the budget admits at least one item per
	// page (the max encoded item is far smaller than a page).
	cost := plen + 4
	if r.open && r.n > 0 && r.used+cost > r.b.budget {
		if err := r.seal(true); err != nil {
			return nil, err
		}
	}
	if !r.open {
		r.no = r.b.alloc()
		r.init()
	}
	if r.n == 0 {
		r.first = first
	}
	off, payload, err := r.buf.ReserveItem(plen)
	if err != nil {
		return nil, err
	}
	if err := r.buf.InsertSlot(r.n, off); err != nil {
		return nil, err
	}
	r.n++
	r.used += cost
	return payload, nil
}

// seal writes the open page out. With chain set, the next page's number is
// allocated first and the two are cross-linked with matching peer tokens —
// the same invariant CheckStrict enforces on split-built chains.
func (r *pageRun) seal(chain bool) error {
	if !r.open {
		return nil
	}
	var next uint32
	if chain {
		next = r.b.alloc()
		r.buf.SetRightPeer(next)
		r.buf.SetRightPeerToken(r.b.tok)
	}
	if err := r.b.t.pool.WriteBypass(r.no, r.buf); err != nil {
		return err
	}
	r.ents = append(r.ents, internalItem{sep: r.first, child: r.no})
	if r.level == 0 {
		r.b.stats.Leaves++
		r.b.t.obs.Count(obs.LoadLeaf)
	} else {
		r.b.stats.Internal++
	}
	if chain {
		left := r.no
		r.no = next
		r.init()
		r.buf.SetLeftPeer(left)
		r.buf.SetLeftPeerToken(r.b.tok)
	} else {
		r.open = false
	}
	return nil
}

// packLeaves streams the sorted run into leaf pages and returns one
// separator entry per leaf for the parent build.
func (b *bulkBuilder) packLeaves(run []Item) ([]internalItem, error) {
	r := newPageRun(b, 0)
	var prev []byte
	havePrev := false
	for _, it := range run {
		if havePrev && !keyLess(prev, it.Key) {
			b.stats.Duplicates++
			continue
		}
		prev, havePrev = it.Key, true
		payload, err := r.place(leafItemLen(it.Key, it.Value), it.Key)
		if err != nil {
			return nil, err
		}
		putU16(payload, len(it.Key))
		copy(payload[2:], it.Key)
		copy(payload[2+len(it.Key):], it.Value)
		b.stats.Keys++
	}
	if err := r.seal(false); err != nil {
		return nil, err
	}
	return r.ents, nil
}

// packInternal builds one parent level from its children's separators in a
// single pass. The leftmost entry's separator becomes empty — the level's
// lower bound is -inf, exactly as growRoot writes it — and shadow levels
// encode a zero prev pointer per entry: a freshly loaded page has no
// earlier version to re-copy from.
func (b *bulkBuilder) packInternal(level uint8, children []internalItem) ([]internalItem, error) {
	children[0].sep = []byte{}
	shadow := b.t.pageIsShadow(level)
	r := newPageRun(b, level)
	for _, c := range children {
		plen := 2 + len(c.sep) + 4
		if shadow {
			plen += 4
		}
		payload, err := r.place(plen, c.sep)
		if err != nil {
			return nil, err
		}
		putU16(payload, len(c.sep))
		copy(payload[2:], c.sep)
		putU32(payload[2+len(c.sep):], c.child)
		if shadow {
			putU32(payload[2+len(c.sep)+4:], 0)
		}
	}
	if err := r.seal(false); err != nil {
		return nil, err
	}
	return r.ents, nil
}

// oldPage is one page of a structure about to be replaced, with the key
// range the freelist records for it.
type oldPage struct {
	no     uint32
	lo, hi []byte
}
