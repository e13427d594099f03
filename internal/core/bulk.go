package core

// Bulk load and rebuild-from-heap at the DB level. The btree loader
// (internal/btree/bulkload.go) builds a tree bottom-up; this file feeds
// it: BulkLoad turns a key/TID run into an index without going through
// the insert path, and Rebuild scans the heap relation — the
// no-overwrite storage system's authoritative copy (§2) — collects every
// live tuple version, and swaps a freshly packed tree over the old structure
// in one durable root install.

import (
	"fmt"
	"time"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/vacuum"
)

// RebuildStats describes a wholesale index reconstruction.
type RebuildStats struct {
	Keys     int           // live heap tuple versions fed to the loader
	Leaves   int           // leaf pages written
	Internal int           // internal pages written
	Levels   int           // height of the rebuilt tree
	Wall     time.Duration // end-to-end reconstruction time
}

// BulkLoad builds the index bottom-up from parallel key/TID slices. The
// index must be empty; duplicate keys keep their first occurrence. This is
// the fast path for seeding large datasets — one sorted pass instead of a
// descent per key.
func (ix *Index) BulkLoad(keys [][]byte, tids []heap.TID) error {
	if err := ix.db.writable(); err != nil {
		return err
	}
	items, err := loadItems(keys, tids)
	if err != nil {
		return err
	}
	_, err = ix.tree.BulkLoad(items)
	return err
}

// Rebuild reconstructs the index wholesale from the heap relation: one heap
// scan feeds every live tuple version's key (via keyOf) to the bottom-up
// loader, and the new tree atomically replaces the old one. Unlike the
// insert path it is deliberately not gated on DB health — rebuilding a
// damaged index is how a degraded DB gets back to Healthy.
func (ix *Index) Rebuild(rel *Relation, keyOf vacuum.KeyOf) (RebuildStats, error) {
	start := time.Now()
	items, err := ix.db.collectHeapItems(rel, keyOf, nil)
	if err != nil {
		return RebuildStats{}, err
	}
	ls, err := ix.tree.BulkReplace(items)
	if err != nil {
		return RebuildStats{}, err
	}
	ix.db.markHealthDirty()
	return RebuildStats{Keys: ls.Keys, Leaves: ls.Leaves, Internal: ls.Internal,
		Levels: ls.Levels, Wall: time.Since(start)}, nil
}

// loadItems zips parallel key/TID slices into loader items.
func loadItems(keys [][]byte, tids []heap.TID) ([]btree.Item, error) {
	if len(keys) != len(tids) {
		return nil, fmt.Errorf("core: bulk load with %d keys but %d tids", len(keys), len(tids))
	}
	items := make([]btree.Item, len(keys))
	for i := range keys {
		items[i] = btree.Item{Key: keys[i], Value: tids[i].Bytes()}
	}
	return items, nil
}

// collectHeapItems gathers the <key, tid> of every tuple version the index
// may need from the relation, in one heap scan; filter, when non-nil, keeps
// only the keys it accepts. A version is left out only when it can never be
// seen again: its creator aborted, or its deleter committed. Every other
// one is indexed, an in-flight version included — §2 tolerates an entry
// for a version that later dies, but not a committed version without one.
func (db *DB) collectHeapItems(rel *Relation, keyOf vacuum.KeyOf, filter func([]byte) bool) ([]btree.Item, error) {
	var items []btree.Item
	err := rel.h.ScanAll(func(tid heap.TID, xmin, xmax heap.XID, data []byte) bool {
		if db.mgr.Aborted(xmin) || xmax != 0 && db.mgr.Committed(xmax) {
			return true
		}
		key := keyOf(data)
		if key == nil {
			return true
		}
		if filter != nil && !filter(key) {
			return true
		}
		items = append(items, btree.Item{Key: key, Value: tid.Bytes()})
		return true
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}
