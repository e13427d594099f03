// Package vacuum implements the garbage-collection duties the paper
// delegates to the POSTGRES archiving/vacuuming machinery (§3.3.3):
//
//   - Index freelist regeneration. The in-memory freelist dies with the
//     process, so pages freed before a crash leak until the collector
//     sweeps the index file for pages unreachable from the root and puts
//     them back on the freelist — with the key range each page held, so
//     the allocator can continue to refuse same-range reuse.
//   - Dead tuple reclamation in heap relations, and with it the removal of
//     index keys that point at dead tuples. POSTGRES never removes index
//     entries inside a transaction; invalid keys are filtered at the heap
//     until the vacuum catches up.
package vacuum

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/page"
	"repro/internal/storage"
)

// IndexStats reports what an index sweep found.
type IndexStats struct {
	ScannedPages   int
	ReachablePages int
	Reclaimed      int // pages added to the freelist
	AlreadyFree    int
}

// Index sweeps the index file and regenerates the freelist. The tree must
// be quiescent; the sweep syncs first so that every prevPtr and backup
// reference is already superseded by durable state, making every
// unreachable page reclaimable.
func Index(t *btree.Tree) (IndexStats, error) {
	var st IndexStats
	// A completed sync retires all pending-free pages and makes every
	// split family durable, so reachability is the only liveness
	// criterion left.
	if err := t.Sync(); err != nil {
		return st, err
	}
	// RecoverAll is also where a sweep right after Open waits for the
	// tree's background allocation-bound walk (and fails with its error);
	// NumPages below is that bound.
	if err := t.RecoverAll(); err != nil {
		return st, err
	}
	if err := t.Sync(); err != nil {
		return st, err
	}
	reach, err := t.ReachablePages()
	if err != nil {
		return st, err
	}
	st.ReachablePages = len(reach)
	n := t.NumPages()
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	for no := storage.PageNo(1); no < n; no++ {
		st.ScannedPages++
		if reach[no] {
			continue
		}
		if t.Freelist().Contains(no) {
			st.AlreadyFree++
			continue
		}
		lo, hi, err := pageKeyRange(t, no, buf)
		if err != nil {
			return st, err
		}
		t.Freelist().Put(no, lo, hi)
		st.Reclaimed++
	}
	return st, nil
}

// pageKeyRange recovers the key range an unreachable page held, from its
// content; an unreadable or empty page is treated as having covered the
// whole key space, which makes the allocator maximally conservative about
// reusing it.
func pageKeyRange(t *btree.Tree, no storage.PageNo, buf page.Page) (lo, hi []byte, err error) {
	if err := t.Pool().Disk().ReadPage(no, buf); err != nil {
		return nil, nil, nil
	}
	if !buf.Valid() || buf.NKeys() == 0 {
		return nil, nil, nil
	}
	first := buf.Item(0)
	last := buf.Item(buf.NKeys() - 1)
	if first == nil || last == nil {
		return nil, nil, nil
	}
	loKey, err := itemKeyBytes(first)
	if err != nil {
		return nil, nil, nil
	}
	hiKey, err := itemKeyBytes(last)
	if err != nil {
		return nil, nil, nil
	}
	// The recorded range is [first, successor(last)): half-open like the
	// allocator expects.
	return loKey, append(append([]byte(nil), hiKey...), 0), nil
}

func itemKeyBytes(item []byte) ([]byte, error) {
	if len(item) < 2 {
		return nil, fmt.Errorf("vacuum: malformed item")
	}
	k := int(item[0]) | int(item[1])<<8
	if 2+k > len(item) {
		return nil, fmt.Errorf("vacuum: malformed item key")
	}
	out := make([]byte, k)
	copy(out, item[2:2+k])
	return out, nil
}

// HeapStats reports what a heap sweep found.
type HeapStats struct {
	Scanned      int
	Dead         int // versions invisible to every current and future reader
	IndexRemoved int // index keys detached from dead versions
}

// KeyOf extracts the index key for a tuple's data; the caller supplies it
// because the schema lives above this layer.
type KeyOf func(data []byte) []byte

// Heap sweeps a relation, marks versions that can never be seen again
// (creator aborted, or deleter committed and older than oldestActive) and
// removes the index entries pointing at them. This is the deferred
// index-key deletion that keeps transaction-time index updates out of the
// critical path. A creator that has not committed is judged by Aborted,
// never by its age: a transaction still open owns its versions whatever
// commits after it.
func Heap(rel *heap.Relation, status interface {
	heap.StatusChecker
	heap.TxnStatus
}, oldestActive heap.XID, idx *btree.Tree, keyOf KeyOf) (HeapStats, error) {
	var st HeapStats
	type deadTuple struct {
		tid  heap.TID
		data []byte
	}
	var dead []deadTuple
	err := rel.ScanAll(func(tid heap.TID, xmin, xmax heap.XID, data []byte) bool {
		st.Scanned++
		expired := xmax != 0 && status.Committed(xmax) && xmax < oldestActive
		aborted := status.Aborted(xmin)
		if expired || aborted {
			st.Dead++
			dead = append(dead, deadTuple{tid, append([]byte(nil), data...)})
		}
		return true
	})
	if err != nil {
		return st, err
	}
	for _, dt := range dead {
		if idx != nil && keyOf != nil {
			key := keyOf(dt.data)
			// The entry may already be gone (several versions of the
			// same key, or a previous vacuum pass).
			if v, lerr := idx.Lookup(key); lerr == nil {
				if tid, perr := heap.ParseTID(v); perr == nil && tid == dt.tid {
					if derr := idx.Delete(key); derr == nil {
						st.IndexRemoved++
					}
				}
			}
		}
		if err := rel.MarkDead(dt.tid); err != nil {
			return st, err
		}
	}
	if err := rel.Sync(); err != nil {
		return st, err
	}
	if idx != nil {
		if err := idx.Sync(); err != nil {
			return st, err
		}
	}
	return st, nil
}
