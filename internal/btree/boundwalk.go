package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// This file holds the one piece of restart work that is proportional to the
// size of the index, and keeps it off Open's critical path.
//
// The next fresh page number (nextNew) must exceed not only the file size
// but every page number referenced anywhere in the durable tree: a crash can
// lose a file extension while keeping a parent that points into it, and
// handing such a page number out again would collide with the lazy repair
// that later rebuilds the lost child there. Finding the largest referenced
// page means reading every live index page, so Open starts that walk in a
// goroutine and returns. Nothing needs nextNew until a page is allocated,
// and a read-only shared-mode Lookup or Scan allocates nothing: those are
// served at once, off the pages the walk is pulling into the pool.
//
// Everything else — any operation that allocates or mutates index pages, or
// that reads nextNew — calls awaitBound before it takes the tree lock or a
// frame latch. So the walk sees immutable pages, a waiter holds nothing the
// walk could need, and a read that has to fall back to the exclusive repair
// path waits at most what a synchronous walk in Open would have cost.

// awaitBound blocks until the bound walk has published nextNew, and returns
// the walk's error: a tree whose bound is unknown refuses to allocate.
func (t *Tree) awaitBound() error {
	select {
	case <-t.boundReady:
	default:
		t.obs.Count(obs.OpenGateWait)
		<-t.boundReady
	}
	return t.boundErr
}

// lockExclusive is awaitBound followed by the exclusive tree lock, which
// owns repairs, deletes, merges and loads. On error the lock is not held.
func (t *Tree) lockExclusive() error {
	if err := t.awaitBound(); err != nil {
		return err
	}
	t.mu.Lock()
	return nil
}

// AwaitBound blocks until the background walk Open started has finished and
// returns its error. Operations wait by themselves; this is for a caller
// that is about to take the disk away without Close (a tool, a simulated
// crash) and must not leave the walk reading it.
func (t *Tree) AwaitBound() error {
	<-t.boundReady
	return t.boundErr
}

// place is where the root path puts a page: the key range and level the
// parent entry that names it prescribes, or the whole key space for the root.
type place struct {
	lo, hi []byte
	level  int // the page's level; unused for the root
	root   bool
}

// walkPage is one page of a level of the bound walk. at is where the root
// path puts it, nil for a page reached only through a pointer the root path
// does not vouch for (the previous root, a backup entry, a child of a page
// that failed its checks). A zero no is a hole: a stretch of the root path
// the walk could not follow, kept in line so that the leaves on either side
// of it are not taken for neighbours.
type walkPage struct {
	no uint32
	at *place
}

// leafLinks is what the walk takes from a leaf on the root path that passed
// the descent's checks, is not suspect, and has a non-empty range: enough to
// tell whether §3.5.1 verification would change its peer links.
type leafLinks struct {
	no                uint32
	lo, hi            []byte
	left, right       uint32
	leftTok, rightTok uint64
}

// pageRefs is what the bound walk takes from one page.
type pageRefs struct {
	maxRef   uint32     // largest page number any pointer field mentions
	children []uint32   // child pointers the root path does not vouch for, left to right
	placed   []walkPage // a sound internal page on the root path: its live children
	leaf     *leafLinks // a sound leaf on the root path
	isLeaf   bool       // the page is a leaf, sound or not
}

// noteRef raises *maxRef to ref unless ref is the nil pointer.
func noteRef(maxRef *uint32, ref uint32) {
	if ref != ^uint32(0) && ref > *maxRef {
		*maxRef = ref
	}
}

// boundWalk walks the durable structure below the meta page's root level by
// level, then whatever the previous root reaches that the root did not, and
// publishes nextNew: one past the largest page number mentioned by those two,
// by the reloaded freelist, or by any pointer field of any page reached.
// Children are fetched left to right, several at a time, so the leaves arrive
// in key order ahead of a client reading the key space upwards behind the
// walk.
//
// On the way it runs the descent's own checks on every page it reaches from
// the root and publishes, with nextNew, the leaves whose §3.5.1 verification
// would change nothing (provePeers): their first update after the crash
// skips it. The walk only reads; it repairs nothing.
func (t *Tree) boundWalk(rootNo, prevRootNo uint32, rootTok uint64) {
	defer close(t.boundReady)
	var start time.Time
	if t.obs != nil {
		start = time.Now()
	}
	var maxRef uint32
	noteRef(&maxRef, rootNo)
	noteRef(&maxRef, prevRootNo)
	for _, e := range t.free.Entries() {
		noteRef(&maxRef, e.PageNo)
	}
	// A page at or past the end of the file reads as zeros and references
	// nothing; the end cannot move while allocation waits on this walk.
	end := t.pool.Disk().NumPages()
	seen := map[uint32]bool{0: true}
	twice := map[uint32]bool{} // met twice on the root path: proves nothing
	// admit turns the next level's pointers into the pages to read: those on
	// the root path first, in order, each page once (a hole where a page is
	// met again or lies past the end), then the others not read yet.
	admit := func(placed []walkPage, loose []uint32) []walkPage {
		out := placed[:0]
		for _, w := range placed {
			if w.no != 0 && (w.no >= end || seen[w.no]) {
				twice[w.no] = true
				w = walkPage{}
			}
			if w.no == 0 && len(out) > 0 && out[len(out)-1].no == 0 {
				continue // one hole stands for a run of them
			}
			seen[w.no] = true
			out = append(out, w)
		}
		for _, no := range loose {
			if no < end && !seen[no] {
				seen[no] = true
				out = append(out, walkPage{no: no})
			}
		}
		return out
	}
	// chain holds, level by level and left to right, one slot per page on
	// the root path: the leaf's links, or nil. A nil also ends each level.
	var chain []*leafLinks
	pages, leaves := 0, 0
	walk := func(level []walkPage) error {
		for slices.ContainsFunc(level, func(w walkPage) bool { return w.no != 0 }) {
			refs, err := t.readLevel(level, rootTok)
			if err != nil {
				return err
			}
			var placed []walkPage
			var loose []uint32
			for i, r := range refs {
				if level[i].no != 0 {
					pages++
				}
				if r.isLeaf {
					leaves++
				}
				noteRef(&maxRef, r.maxRef)
				loose = append(loose, r.children...)
				if level[i].at == nil && level[i].no != 0 {
					continue
				}
				chain = append(chain, r.leaf)
				if len(r.placed) > 0 {
					placed = append(placed, r.placed...)
				} else if !r.isLeaf {
					placed = append(placed, walkPage{}) // the subtree below is a hole
				}
			}
			chain = append(chain, nil)
			level = admit(placed, loose)
		}
		return nil
	}
	root := walkPage{no: rootNo}
	if t.protected() && !t.opts.noRangeCheck && !t.opts.noPeerCheck {
		root.at = &place{root: true}
	}
	// The root first: in a reorg tree the previous root is usually a live
	// page one level down, and reading it first would leave its subtree
	// unplaced.
	err := walk(admit([]walkPage{root}, nil))
	if err == nil {
		err = walk(admit(nil, []uint32{prevRootNo}))
	}
	if err != nil {
		t.boundErr = fmt.Errorf("btree: allocation bound unknown: %w", err)
		t.obs.Eventf(obs.OpenBoundWalk, 0, "bound walk failed after %d pages: %v", pages, err)
		return
	}
	t.nextNew = max(end, maxRef+1) // at least 1: page 0 is the meta page
	t.proven = provePeers(chain, twice, end)
	if r := t.obs; r != nil {
		r.Observe(obs.TBoundWalk, time.Since(start))
		r.CountN(obs.OpenBoundPages, uint64(pages))
		r.Eventf(obs.OpenBoundWalk, 0, "allocation bound %d from %d pages, %d of %d leaves proven",
			t.nextNew, pages, t.proven.count(), leaves)
	}
}

// provePeers returns the leaves of chain that §3.5.1 verification would
// leave as they are. verifyPeerPath descends, repairing, to the leaf just
// below the leaf's lower bound and to the leaf covering its upper bound, and
// re-links the leaf to them unless both links already agree, pointers and
// tokens alike. On a root path whose every page passed the descent's checks
// those descents repair nothing and end at the leaf's neighbours on the
// path, so verification is a no-op exactly when: the leaf has no left
// neighbour and no left peer, or its left neighbour's range ends where its
// own begins and the two point at each other with equal tokens — and the
// mirror on the right. Every leaf in chain passed the checks and is not
// suspect; a nil slot is anything else, and proves neither side.
func provePeers(chain []*leafLinks, twice map[uint32]bool, end uint32) bitmap {
	for i, l := range chain {
		if l != nil && twice[l.no] {
			chain[i] = nil
		}
	}
	proven := make(bitmap, (end+63)/64)
	for i, b := range chain {
		if b == nil {
			continue
		}
		var a, c *leafLinks
		if i > 0 {
			a = chain[i-1]
		}
		if i+1 < len(chain) {
			c = chain[i+1]
		}
		left := b.left == 0
		if len(b.lo) != 0 {
			left = a != nil && bytes.Equal(a.hi, b.lo) &&
				a.right == b.no && b.left == a.no && a.rightTok == b.leftTok
		}
		right := b.right == 0
		if b.hi != nil {
			right = c != nil && bytes.Equal(b.hi, c.lo) &&
				b.right == c.no && c.left == b.no && b.rightTok == c.leftTok
		}
		if left && right {
			proven.set(b.no)
		}
	}
	return proven
}

// bitmap is a set of the page numbers below a bound fixed when it is made.
type bitmap []uint64

// set adds no; a page at or past the bound stays out.
func (m bitmap) set(no uint32) {
	if int(no/64) < len(m) {
		m[no/64] |= 1 << (no % 64)
	}
}

// has reports whether no is in the set; a page past its end is not.
func (m bitmap) has(no uint32) bool {
	return int(no/64) < len(m) && m[no/64]&(1<<(no%64)) != 0
}

func (m bitmap) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// readLevel reads the given pages in order, up to buffer.ReadWindow at a
// time (fewer on a pool too small to spare that many pinned frames), and
// returns each one's references; a hole reads nothing.
func (t *Tree) readLevel(level []walkPage, rootTok uint64) ([]pageRefs, error) {
	workers := min(buffer.ReadWindow, max(1, t.pool.Capacity()/4), len(level))
	refs := make([]pageRefs, len(level))
	errs := make([]error, workers) // one slot per worker; the first failure stops them all
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(level) {
					return
				}
				if level[i].no == 0 {
					continue
				}
				if refs[i], errs[w] = t.readRefs(level[i], rootTok); errs[w] != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// readRefs collects every pointer field of page w.no: peer and newPage
// pointers, and for an internal page the child and prevPtr of every live and
// backup entry. A page on the root path also gets the descent's checks
// (checkPage, against the meta page's root token): a sound internal page
// places its live children, a sound leaf gives its links. A quarantined page
// has been withdrawn from service and contributes nothing; any other read
// error fails the walk.
func (t *Tree) readRefs(w walkPage, rootTok uint64) (pageRefs, error) {
	var r pageRefs
	f, err := t.pool.Get(w.no)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			return r, nil
		}
		return r, err
	}
	// The pool fills a frame under its write latch, so even a page nobody
	// mutates must be read under the shared latch.
	f.RLatch()
	defer func() {
		f.RUnlatch()
		f.Unpin()
	}()
	p := f.Data
	if !p.Valid() {
		return r, nil
	}
	noteRef(&r.maxRef, p.NewPage())
	noteRef(&r.maxRef, p.LeftPeer())
	noteRef(&r.maxRef, p.RightPeer())
	sound := false
	if at := w.at; at != nil {
		sound, _ = t.checkPage(readOnly, p, at.root, rootTok, at.level, at.lo, at.hi)
	}
	if p.Type() != page.TypeInternal {
		r.isLeaf = p.Type() == page.TypeLeaf
		if sound && r.isLeaf && !p.HasFlag(page.FlagPeerSuspect) &&
			(w.at.hi == nil || bytes.Compare(w.at.lo, w.at.hi) < 0) {
			r.leaf = &leafLinks{
				no: w.no, lo: w.at.lo, hi: w.at.hi,
				left: p.LeftPeer(), right: p.RightPeer(),
				leftTok: p.LeftPeerToken(), rightTok: p.RightPeerToken(),
			}
		}
		return r, nil
	}
	shadow := p.HasFlag(page.FlagShadow)
	live, total := p.NKeys(), max(p.NKeys(), p.PrevNKeys())
	for i := 0; i < total; i++ {
		it, err := decodeInternalItem(p.Item(i), shadow)
		if err != nil {
			sound = sound && i >= live
			continue
		}
		noteRef(&r.maxRef, it.child)
		noteRef(&r.maxRef, it.prev)
		r.children = append(r.children, it.child)
		if sound && i < live {
			lo, hi, err := childRange(p, i, w.at.lo, w.at.hi)
			if err != nil {
				sound = false
				continue
			}
			r.placed = append(r.placed, walkPage{no: it.child,
				at: &place{lo: cloneBytes(lo), hi: cloneBytes(hi), level: int(p.Level()) - 1}})
		}
	}
	if sound {
		r.children = r.children[len(r.placed):]
	} else {
		r.placed = nil
	}
	return r, nil
}
