package btree

import (
	"errors"
	"fmt"
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

// pageRefs is what the bound walk takes from one page.
type pageRefs struct {
	maxRef   uint32   // largest page number any pointer field mentions
	children []uint32 // child pointers of an internal page, left to right
}

// noteRef raises *maxRef to ref unless ref is the nil pointer.
func noteRef(maxRef *uint32, ref uint32) {
	if ref != ^uint32(0) && ref > *maxRef {
		*maxRef = ref
	}
}

// boundWalk walks the durable structure below the meta page's root and
// previous-root pointers level by level, and publishes nextNew: one past the
// largest page number mentioned by those two, by the reloaded freelist, or by
// any pointer field of any page reached. Children are fetched left to right,
// several at a time, so the leaves arrive in key order ahead of a client
// reading the key space upwards behind the walk.
func (t *Tree) boundWalk(roots ...uint32) {
	defer close(t.boundReady)
	var start time.Time
	if t.obs != nil {
		start = time.Now()
	}
	var maxRef uint32
	for _, no := range roots {
		noteRef(&maxRef, no)
	}
	for _, e := range t.free.Entries() {
		noteRef(&maxRef, e.PageNo)
	}
	// A page at or past the end of the file reads as zeros and references
	// nothing; the end cannot move while allocation waits on this walk.
	end := t.pool.Disk().NumPages()
	seen := map[uint32]bool{0: true}
	unseen := func(nos []uint32) []uint32 {
		out := nos[:0]
		for _, no := range nos {
			if no < end && !seen[no] {
				seen[no] = true
				out = append(out, no)
			}
		}
		return out
	}
	pages := 0
	for level := unseen(roots); len(level) > 0; {
		refs, err := t.readLevel(level)
		if err != nil {
			t.boundErr = fmt.Errorf("btree: allocation bound unknown: %w", err)
			t.obs.Eventf(obs.OpenBoundWalk, 0, "bound walk failed after %d pages: %v", pages, err)
			return
		}
		pages += len(level)
		var next []uint32
		for _, r := range refs {
			noteRef(&maxRef, r.maxRef)
			next = append(next, r.children...)
		}
		level = unseen(next)
	}
	t.nextNew = max(end, maxRef+1) // at least 1: page 0 is the meta page
	if r := t.obs; r != nil {
		r.Observe(obs.TBoundWalk, time.Since(start))
		r.CountN(obs.OpenBoundPages, uint64(pages))
		r.Eventf(obs.OpenBoundWalk, 0, "allocation bound %d from %d pages", t.nextNew, pages)
	}
}

// readLevel reads the given pages in order, up to buffer.FlushWorkers at a
// time (fewer on a pool too small to spare that many pinned frames), and
// returns each one's references.
func (t *Tree) readLevel(nos []uint32) ([]pageRefs, error) {
	workers := min(buffer.FlushWorkers, max(1, t.pool.Capacity()/4), len(nos))
	refs := make([]pageRefs, len(nos))
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
				if i >= len(nos) {
					return
				}
				if refs[i], errs[w] = t.readRefs(nos[i]); errs[w] != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// readRefs collects every pointer field of page no: peer and newPage
// pointers, and for an internal page the child and prevPtr of every live and
// backup entry. A quarantined page has been withdrawn from service and
// contributes nothing; any other read error fails the walk.
func (t *Tree) readRefs(no uint32) (pageRefs, error) {
	var r pageRefs
	f, err := t.pool.Get(no)
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
	if p.Type() != page.TypeInternal {
		return r, nil
	}
	shadow := p.HasFlag(page.FlagShadow)
	total := p.NKeys()
	if bn := p.PrevNKeys(); bn > total {
		total = bn
	}
	for i := 0; i < total; i++ {
		it, err := decodeInternalItem(p.Item(i), shadow)
		if err != nil {
			continue
		}
		noteRef(&r.maxRef, it.child)
		noteRef(&r.maxRef, it.prev)
		r.children = append(r.children, it.child)
	}
	return r, nil
}
