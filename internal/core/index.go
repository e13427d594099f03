package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/page"
)

// Index is a crash-recoverable index: one B-link tree, in file idx_<name>,
// and every call goes straight to it. The paper's §3.2 sync token, §3.3
// prevPtr and §3.4 backup keys all belong to that one tree, and so does its
// repair on first use.
type Index struct {
	db   *DB
	name string
	tree *btree.Tree
}

// ErrShardMismatch is returned when opening an index whose store holds a
// shard-count file: the store was written when an index could span several
// hash-routed trees, and one tree would serve it as a new, empty index.
var ErrShardMismatch = errors.New("core: index opened with wrong shard count")

// shardMetaMagic marks page 0 of a shard-count file.
const shardMetaMagic = uint32(0x53484152) // "SHAR"

// CreateIndex opens (creating if absent) an index of the given variant.
// Opening an index with a variant other than its own fails with
// btree.ErrVariantMismatch, whether the index is open already or on disk; a
// store that holds a shard count for it fails with ErrShardMismatch.
func (db *DB) CreateIndex(name string, v Variant) (*Index, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ix, ok := db.indexes[name]; ok {
		if got := ix.tree.Variant(); got != v {
			return nil, fmt.Errorf("%w: %q is open as %v, requested %v",
				btree.ErrVariantMismatch, name, got, v)
		}
		return ix, nil
	}
	if err := db.checkShardCount(name); err != nil {
		return nil, err
	}
	ix := &Index{db: db, name: name}
	d, err := db.store.open(ix.fileName())
	if err != nil {
		return nil, err
	}
	opts := btree.Options{PoolSize: cmp.Or(db.cfg.indexPoolSize, db.cfg.PoolSize), Obs: db.cfg.Obs}
	if ix.tree, err = btree.Open(d, v, opts); err != nil {
		return nil, err
	}
	db.attachHealth(ix.tree.Pool())
	db.indexes[name] = ix
	return ix, nil
}

// fileName names the index's page file.
func (ix *Index) fileName() string { return "idx_" + ix.name }

// checkShardCount refuses index name when its store holds a shard count in
// idx_<name>.shards: the index was written across several trees, which this
// build does not route to. An absent or empty count file is no count, so a
// one-tree store costs a stat here. Called with db.mu held.
func (db *DB) checkShardCount(name string) error {
	countFile := "idx_" + name + ".shards"
	if !db.store.exists(countFile) {
		return nil
	}
	d, err := db.store.open(countFile)
	if err != nil || d.NumPages() == 0 {
		return err
	}
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	if err := d.ReadPage(0, buf); err != nil || buf.IsZeroed() {
		return err
	}
	if binary.BigEndian.Uint32(buf[page.HeaderSize:]) != shardMetaMagic {
		return fmt.Errorf("core: %q shard meta page is not a shard meta page", name)
	}
	return fmt.Errorf("%w: %q was created with %d shards; an index is one tree",
		ErrShardMismatch, name, binary.BigEndian.Uint32(buf[page.HeaderSize+4:]))
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Tree exposes the underlying B-link tree (checks, experiments).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// InsertTID adds key -> tid within the transaction. Duplicate key values
// must be made unique by the caller (POSTGRES appends the object ID, §2);
// MakeUnique does that. The tree joins the transaction's force set.
func (ix *Index) InsertTID(t *Txn, key []byte, tid heap.TID) error {
	if err := ix.db.writable(); err != nil {
		return err
	}
	t.tx.Touch(ix.tree)
	return ix.tree.Insert(key, tid.Bytes())
}

// InsertTIDBatch adds every key -> tid pair within the transaction through
// the tree's batched insert path: one descent and one leaf latch per
// same-leaf run instead of per key. Semantics match a loop over InsertTID
// (duplicates must already be uniquified), except that on error a sorted
// prefix of the batch may have been applied — acceptable inside a
// transaction, whose commit/abort is what gives the batch its atomicity.
func (ix *Index) InsertTIDBatch(t *Txn, keys [][]byte, tids []heap.TID) error {
	if len(keys) != len(tids) {
		return fmt.Errorf("core: batch of %d keys with %d tids", len(keys), len(tids))
	}
	if err := ix.db.writable(); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	t.tx.Touch(ix.tree)
	values := make([][]byte, len(tids))
	for i := range tids {
		values[i] = tids[i].Bytes()
	}
	return ix.tree.InsertBatch(keys, values)
}

// HintLeaf starts reading the leaf of key's tree that covers key, and returns
// that leaf's bounds for the caller to keep (btree.Tree.HintLeaf); ok is
// false when no hint was given. It is advice and changes nothing.
func (ix *Index) HintLeaf(key []byte) (lo, hi []byte, ok bool) {
	if ix.db.readable() != nil {
		return nil, nil, false
	}
	return ix.tree.HintLeaf(key)
}

// LookupTID resolves a key to the TID it indexes. While degraded, a key
// inside a quarantined range fails with an error unwrapping to
// ErrQuarantined rather than a wrong answer.
func (ix *Index) LookupTID(key []byte) (heap.TID, error) {
	if err := ix.db.readable(); err != nil {
		return heap.TID{}, err
	}
	v, err := ix.tree.Lookup(key)
	if err != nil {
		return heap.TID{}, err
	}
	return heap.ParseTID(v)
}

// FetchVisible resolves key through the index and the relation, applying
// tuple visibility: a key left behind by a dead transaction is detected and
// ignored (§2), surfacing as ErrKeyNotFound.
func (ix *Index) FetchVisible(rel *Relation, key []byte) ([]byte, error) {
	tid, err := ix.LookupTID(key)
	if err != nil {
		return nil, err
	}
	data, err := rel.Fetch(tid)
	if errors.Is(err, heap.ErrNoSuchTuple) {
		return nil, fmt.Errorf("%w: %q (index key points at an invalid tuple)", ErrKeyNotFound, key)
	}
	return data, err
}

// Scan visits index entries in [start, end) in key order.
func (ix *Index) Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error {
	if err := ix.db.readable(); err != nil {
		return err
	}
	return ix.tree.Scan(start, end, withTID(fn))
}

// withTID adapts an entry visitor to the tree's key/value one; a value that
// is no TID ends the scan.
func withTID(fn func(key []byte, tid heap.TID) bool) func(k, v []byte) bool {
	return func(k, v []byte) bool {
		tid, err := heap.ParseTID(v)
		return err == nil && fn(k, tid)
	}
}

// ScanAhead is Scan for a caller that fetches the tuple of every entry from
// rel as fn receives it, and wants about rows rows (rows <= 0: as many as the
// range holds). Before a leaf's entries reach fn, the heap pages of the ones
// the caller will get to are hinted to rel's buffer pool, and so is the next
// leaf if this one cannot satisfy the caller; those pages are then read
// while fn resolves entry after entry, not one after the other as fn comes
// to need them. Hints are advice (buffer.Pool.Hint): the entries fn sees, and
// their order, are Scan's.
func (ix *Index) ScanAhead(rel *Relation, start, end []byte, rows int, fn func(key []byte, tid heap.TID) bool) error {
	if err := ix.db.readable(); err != nil {
		return err
	}
	return ix.tree.ScanAhead(start, end, rel.newLookAhead(rows), withTID(fn))
}

// newLookAhead returns the look-ahead of an index scan whose caller fetches
// from r and wants rows rows. A row is a run of entries that differ only in
// the TID MakeUnique appends: the versions of one key. Of each leaf it hints
// the heap pages of the rows still wanted, each page once, except the page
// of the first entry, which the caller is about to read itself; more than a
// pool reads at once it does not ask for. It wants the next leaf when this
// one ran out before the rows did. With rows <= 0 it wants them all and keeps
// no count.
func (r *Relation) newLookAhead(rows int) btree.LookAhead {
	pool, counted := r.h.Pool(), rows > 0
	return func(leaf []btree.Pair) bool {
		var (
			pages [buffer.ReadWindow]uint32 // pages[0] is the caller's own read
			n     int
			row   []byte
		)
	entries:
		for _, e := range leaf {
			if counted {
				if key := e.Key[:max(0, len(e.Key)-heap.TIDLen)]; row == nil || !bytes.Equal(key, row) {
					if rows == 0 {
						return false
					}
					rows--
					row = key
				}
			}
			tid, err := heap.ParseTID(e.Value)
			if err != nil || n == len(pages) {
				continue
			}
			for _, seen := range pages[:n] {
				if seen == tid.PageNo {
					continue entries
				}
			}
			if pages[n], n = tid.PageNo, n+1; n > 1 {
				pool.Hint(tid.PageNo)
			}
		}
		return true
	}
}

// ScanDegraded visits index entries in [start, end) like Scan, but steps
// over quarantined subtrees instead of failing, reporting each skipped key
// range: every entry it does emit is correct (skip-and-report, never
// wrong-and-silent).
func (ix *Index) ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return btree.ScanReport{}, err
	}
	return ix.tree.ScanDegraded(start, end, withTID(fn))
}
