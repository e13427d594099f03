package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
)

// Index is a crash-recoverable index: one logical key space over N >= 1
// B-link trees. With one tree it is that tree, in file idx_<name>, and every
// call goes straight to it. With more, each shard owns its own page file,
// buffer-pool stripe set, sync counter (= sync domain), split lock, and
// quarantine registry, so the singletons that cap a single tree's
// scalability are multiplied away: point operations route lock-free by key
// hash (shardOf), range scans merge the per-shard streams in key order
// (mergeScan), and post-crash repair — the paper's repair-on-first-use — runs
// per shard in parallel (Recover), because no shard needs anything from
// another to heal.
type Index struct {
	db    *DB
	name  string
	trees []*btree.Tree
}

// ErrShardMismatch is returned when opening an existing index with a
// different shard count than it was created with: the key->shard hash would
// route lookups to the wrong trees.
var ErrShardMismatch = errors.New("core: index opened with wrong shard count")

// shardMetaMagic marks page 0 of the shard-count file.
const shardMetaMagic = uint32(0x53484152) // "SHAR"

// CreateIndex opens (creating if absent) a one-tree index of the given
// variant: CreateIndexN with n = 1.
func (db *DB) CreateIndex(name string, v Variant) (*Index, error) {
	return db.CreateIndexN(name, v, 1)
}

// CreateIndexN opens (creating if absent) an index of the given variant
// partitioned across n trees; n < 1 means 1. An index of several trees
// keeps its count in a one-page file beside the shard files; an index whose
// count file is absent or empty has one tree. Opening an index with a count
// other than the one it was created with fails with ErrShardMismatch rather
// than silently misrouting keys.
func (db *DB) CreateIndexN(name string, v Variant, n int) (_ *Index, err error) {
	n = max(n, 1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if ix, ok := db.indexes[name]; ok {
		if len(ix.trees) != n {
			return nil, fmt.Errorf("%w: %q is open with %d shards, requested %d",
				ErrShardMismatch, name, len(ix.trees), n)
		}
		return ix, nil
	}
	if err := db.checkShardCount(name, n); err != nil {
		return nil, err
	}
	ix := &Index{db: db, name: name, trees: make([]*btree.Tree, n)}
	// Every tree opened so far has a bound walk reading its file; a failed
	// open hands none of them to Close, so it joins them itself.
	defer func() {
		for _, t := range ix.trees {
			if err != nil && t != nil {
				_ = t.AwaitBound() // the open's own error is the one reported
			}
		}
	}()
	opts := db.cfg.IndexOptions
	if opts.PoolSize == 0 {
		opts.PoolSize = db.cfg.PoolSize
	}
	if opts.Obs == nil {
		opts.Obs = db.cfg.Obs
	}
	for i := range ix.trees {
		d, err := db.store.open(ix.fileName(i))
		if err != nil {
			return nil, err
		}
		t, err := btree.Open(d, v, opts)
		if err != nil {
			return nil, err
		}
		db.attachHealth(t.Pool())
		ix.trees[i] = t
	}
	db.indexes[name] = ix
	return ix, nil
}

// fileName names tree i's page file: idx_<name> for the only tree,
// idx_<name>.s<i> for one of several.
func (ix *Index) fileName(i int) string {
	if len(ix.trees) == 1 {
		return "idx_" + ix.name
	}
	return fmt.Sprintf("idx_%s.s%d", ix.name, i)
}

// checkShardCount verifies n against the shard count index name has on
// disk, and persists it when the index is new and n > 1. The count is what
// makes the key->shard hash stable across restarts; a mismatch is a
// configuration error, not something to paper over. A one-tree index reads
// and writes nothing here. Called with db.mu held.
func (db *DB) checkShardCount(name string, n int) error {
	countFile := "idx_" + name + ".shards"
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	base := page.HeaderSize
	stored := 0 // no count on disk
	if db.store.exists(countFile) {
		d, err := db.store.open(countFile)
		if err != nil {
			return err
		}
		if d.NumPages() > 0 {
			if err := d.ReadPage(0, buf); err != nil {
				return err
			}
			if !buf.IsZeroed() {
				if binary.BigEndian.Uint32(buf[base:]) != shardMetaMagic {
					return fmt.Errorf("core: %q shard meta page is not a shard meta page", name)
				}
				stored = int(binary.BigEndian.Uint32(buf[base+4:]))
			}
		}
	}
	if stored == 0 {
		if n == 1 {
			return nil
		}
		// No count, but maybe a tree: an index created with one shard.
		if db.store.exists("idx_" + name) {
			one, err := db.store.open("idx_" + name)
			if err != nil {
				return err
			}
			if one.NumPages() > 0 {
				stored = 1
			}
		}
	}
	if stored != 0 {
		if stored != n {
			return fmt.Errorf("%w: %q was created with %d shards, requested %d",
				ErrShardMismatch, name, stored, n)
		}
		return nil
	}
	d, err := db.store.open(countFile)
	if err != nil {
		return err
	}
	buf.Init(page.TypeMeta, 0)
	binary.BigEndian.PutUint32(buf[base:], shardMetaMagic)
	binary.BigEndian.PutUint32(buf[base+4:], uint32(n))
	if err := d.WritePage(0, buf); err != nil {
		return err
	}
	return d.Sync()
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Shards returns the number of trees.
func (ix *Index) Shards() int { return len(ix.trees) }

// Tree exposes the underlying B-link tree (stats, checks, experiments). Of
// an index with several trees it is shard 0's; Trees has them all.
func (ix *Index) Tree() *btree.Tree { return ix.trees[0] }

// Trees exposes every shard's B-link tree, in shard order.
func (ix *Index) Trees() []*btree.Tree { return ix.trees }

// shardOf returns the number of the tree that owns key: the only one, or
// FNV-1a over the key bytes mod N. It is the only function that maps a key
// to a tree. Hash (not range) partitioning spreads ascending-key insert
// storms — the paper's worst case for split traffic — evenly over every
// shard's split lock instead of hammering one.
func (ix *Index) shardOf(key []byte) int {
	if len(ix.trees) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(len(ix.trees)))
}

// pick returns the tree that owns key.
func (ix *Index) pick(key []byte) *btree.Tree { return ix.trees[ix.shardOf(key)] }

// partition splits a run of loader items by owning tree.
func (ix *Index) partition(items []btree.Item) [][]btree.Item {
	if len(ix.trees) == 1 {
		return [][]btree.Item{items}
	}
	parts := make([][]btree.Item, len(ix.trees))
	for _, it := range items {
		s := ix.shardOf(it.Key)
		parts[s] = append(parts[s], it)
	}
	return parts
}

// eachTree runs fn on every tree and joins the errors: in the caller's
// goroutine when there is one tree, side by side when there are several —
// shards share nothing, the same independence Recover exploits.
func (ix *Index) eachTree(fn func(i int, t *btree.Tree) error) error {
	if len(ix.trees) == 1 {
		return fn(0, ix.trees[0])
	}
	errs := make([]error, len(ix.trees))
	var wg sync.WaitGroup
	for i, t := range ix.trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, t)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// InsertTID adds key -> tid within the transaction. Duplicate key values
// must be made unique by the caller (POSTGRES appends the object ID, §2);
// MakeUnique does that. Only the key's own tree joins the transaction's
// force set: a commit whose writes all landed in one shard syncs one domain,
// and a batch spanning shards still ends in ONE status append (internal/txn
// fans the per-domain forces out in parallel).
func (ix *Index) InsertTID(t *Txn, key []byte, tid heap.TID) error {
	if err := ix.db.writable(); err != nil {
		return err
	}
	tr := ix.pick(key)
	t.tx.Touch(tr)
	return tr.Insert(key, tid.Bytes())
}

// InsertTIDBatch adds every key -> tid pair within the transaction through
// the tree's batched insert path: one descent and one leaf latch per
// same-leaf run instead of per key. Semantics match a loop over InsertTID
// (duplicates must already be uniquified), except that on error a sorted
// prefix of the batch may have been applied — acceptable inside a
// transaction, whose commit/abort is what gives the batch its atomicity.
// With several trees the keys are grouped by shard and the sub-batches of
// different shards apply in parallel; every touched shard joins the
// transaction's force set before any insert runs.
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
	if len(ix.trees) == 1 {
		t.tx.Touch(ix.trees[0])
		values := make([][]byte, len(tids))
		for i := range tids {
			values[i] = tids[i].Bytes()
		}
		return ix.trees[0].InsertBatch(keys, values)
	}
	subKeys := make([][][]byte, len(ix.trees))
	subVals := make([][][]byte, len(ix.trees))
	for i, k := range keys {
		s := ix.shardOf(k)
		subKeys[s] = append(subKeys[s], k)
		subVals[s] = append(subVals[s], tids[i].Bytes())
	}
	for s, tr := range ix.trees {
		if len(subKeys[s]) > 0 {
			t.tx.Touch(tr)
		}
	}
	return ix.eachTree(func(s int, tr *btree.Tree) error {
		if len(subKeys[s]) == 0 {
			return nil
		}
		return tr.InsertBatch(subKeys[s], subVals[s])
	})
}

// HintLeaf starts reading the leaf of key's tree that covers key, and returns
// that leaf's bounds for the caller to keep (btree.Tree.HintLeaf); ok is
// false when no hint was given. It is advice and changes nothing.
func (ix *Index) HintLeaf(key []byte) (lo, hi []byte, ok bool) {
	if ix.db.readable() != nil {
		return nil, nil, false
	}
	return ix.pick(key).HintLeaf(key)
}

// LookupTID resolves a key to the TID it indexes. While degraded, a key
// inside a quarantined range fails with an error unwrapping to
// ErrQuarantined rather than a wrong answer; a quarantined range in one
// shard fails only the keys routed there.
func (ix *Index) LookupTID(key []byte) (heap.TID, error) {
	if err := ix.db.readable(); err != nil {
		return heap.TID{}, err
	}
	v, err := ix.pick(key).Lookup(key)
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

// Scan visits index entries in [start, end) in key order: the tree's own
// scan, or a k-way merge over the shards' (keys are disjoint across shards).
func (ix *Index) Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error {
	if err := ix.db.readable(); err != nil {
		return err
	}
	if len(ix.trees) == 1 {
		return ix.trees[0].Scan(start, end, withTID(fn))
	}
	ix.db.cfg.Obs.Count(obs.ShardScan)
	_, err := ix.merge(start, end, false, withTID(fn))
	return err
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
// their order, are Scan's. Over several trees it is Scan: the merge draws on
// every shard's tree in batches of its own, so what one leaf holds says
// little about which heap pages fn meets next, and nothing is hinted.
func (ix *Index) ScanAhead(rel *Relation, start, end []byte, rows int, fn func(key []byte, tid heap.TID) bool) error {
	if len(ix.trees) > 1 {
		return ix.Scan(start, end, fn)
	}
	if err := ix.db.readable(); err != nil {
		return err
	}
	return ix.trees[0].ScanAhead(start, end, rel.newLookAhead(rows), withTID(fn))
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
			pages [buffer.FlushWorkers]uint32 // pages[0] is the caller's own read
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
// wrong-and-silent). A quarantined subtree in one shard is skipped and
// reported without suppressing the other shards' keys in its range.
func (ix *Index) ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return btree.ScanReport{}, err
	}
	if len(ix.trees) == 1 {
		return ix.trees[0].ScanDegraded(start, end, withTID(fn))
	}
	ix.db.cfg.Obs.Count(obs.ShardScan)
	return ix.merge(start, end, true, withTID(fn))
}

// Recover runs every tree's repair-on-first-use sweep
// (btree.RecoverAvailable) — side by side when there are several, since no
// shard needs anything from another to heal — and returns the merged skip
// report: each pending §3.3/§3.4 repair is triggered and quarantined
// subtrees are collected. This is the post-crash heal: after a restart it
// brings every pending repair forward instead of leaving it to first use. A
// sweep begins by waiting for its tree's allocation-bound walk; those have
// all been running side by side since the trees were opened. Each finished
// tree counts one shard.recover, whose event carries that tree's time.
func (ix *Index) Recover() (btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return btree.ScanReport{}, err
	}
	reps := make([]btree.ScanReport, len(ix.trees))
	err := ix.eachTree(func(i int, t *btree.Tree) error {
		start := time.Now()
		var err error
		reps[i], err = t.RecoverAvailable()
		ix.db.cfg.Obs.Eventf(obs.ShardRecover, 0, "shard %d/%d recovered in %v (skipped %d ranges)",
			i, len(ix.trees), time.Since(start), len(reps[i].Skipped))
		return err
	})
	var merged btree.ScanReport
	for _, rep := range reps {
		merged.Skipped = append(merged.Skipped, rep.Skipped...)
	}
	return merged, err
}

// scanLeg is what the merge needs of one shard: *btree.Tree, or a test stub
// that drives the merge's edge cases.
type scanLeg interface {
	Scan(start, end []byte, fn func(key, value []byte) bool) error
	ScanDegraded(start, end []byte, fn func(key, value []byte) bool) (btree.ScanReport, error)
}

// merge runs mergeScan over every tree of the index.
func (ix *Index) merge(start, end []byte, degraded bool, fn func(key, value []byte) bool) (btree.ScanReport, error) {
	legs := make([]scanLeg, len(ix.trees))
	for i, t := range ix.trees {
		legs[i] = t
	}
	return mergeScan(legs, start, end, degraded, fn)
}

// scanChunk is the per-shard cursor refill size. Each refill is one pass
// under the shard's tree lock; the merge pulls from in-memory buffers
// between refills, so the chunk size trades lock acquisitions against
// buffered copies.
const scanChunk = 128

type kvPair struct{ k, v []byte }

// cursor pulls one shard's entries in key order, a chunk at a time.
// Push-based tree scans become pull-based merge legs by collecting up to
// scanChunk entries per call and resuming at the first refused key —
// scans are inclusive of their start key, so the refused key is simply
// the next refill's start.
type cursor struct {
	t        scanLeg
	end      []byte
	degraded bool

	buf  []kvPair
	pos  int
	next []byte // start key of the next refill
	done bool   // underlying scan ran to completion

	// Degraded mode: skipped ranges are merged into the shared report,
	// deduplicated by page number (a range re-encountered by a later
	// refill of the same cursor must not be reported twice). repMu guards
	// the report: initial refills run concurrently across cursors.
	rep   *btree.ScanReport
	repMu *sync.Mutex
	seen  map[uint32]bool
}

// refill fetches the next chunk. Post-condition: pos < len(buf) or the
// cursor is exhausted (done && pos == len(buf)).
func (c *cursor) refill() error {
	c.buf = c.buf[:0]
	c.pos = 0
	if c.done {
		return nil
	}
	stopped := false
	collect := func(k, v []byte) bool {
		if len(c.buf) == scanChunk {
			stopped = true
			c.next = append(c.next[:0], k...)
			return false
		}
		c.buf = append(c.buf, kvPair{k: bytes.Clone(k), v: bytes.Clone(v)})
		return true
	}
	if c.degraded {
		rep, err := c.t.ScanDegraded(c.next, c.end, collect)
		c.repMu.Lock()
		for _, s := range rep.Skipped {
			if !c.seen[s.PageNo] {
				c.seen[s.PageNo] = true
				c.rep.Skipped = append(c.rep.Skipped, s)
			}
		}
		c.repMu.Unlock()
		if err != nil {
			return err
		}
	} else {
		if err := c.t.Scan(c.next, c.end, collect); err != nil {
			return err
		}
	}
	if !stopped {
		c.done = true
	}
	return nil
}

// mergeScan visits the union keyspace of legs in [start, end) in global key
// order: a k-way merge over per-shard cursors. Keys are disjoint across
// shards (routing is deterministic), so no dedup is needed; a tie — possible
// only if shards were populated outside shardOf — is broken by shard index
// for determinism. In degraded mode it lifts the skip-and-report contract of
// btree.ScanDegraded to the union keyspace: quarantined subtrees in any leg
// are stepped over and recorded once in the merged report, and healthy legs
// are never affected by a degraded one.
func mergeScan(legs []scanLeg, start, end []byte, degraded bool, fn func(key, value []byte) bool) (btree.ScanReport, error) {
	var rep btree.ScanReport
	var repMu sync.Mutex
	cursors := make([]*cursor, len(legs))
	for i, t := range legs {
		cursors[i] = &cursor{
			t: t, end: end, degraded: degraded,
			next: bytes.Clone(start),
			rep:  &rep, repMu: &repMu, seen: make(map[uint32]bool),
		}
	}
	// Initial refills run in parallel: each leg is an independent tree
	// descent, typically I/O-bound on a cold pool.
	errs := make([]error, len(cursors))
	var wg sync.WaitGroup
	for i, c := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.refill()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return rep, err
	}

	for {
		best := -1
		for i, c := range cursors {
			if c.pos == len(c.buf) {
				continue
			}
			if best == -1 || bytes.Compare(c.buf[c.pos].k, cursors[best].buf[cursors[best].pos].k) < 0 {
				best = i
			}
		}
		if best == -1 {
			return rep, nil
		}
		c := cursors[best]
		e := c.buf[c.pos]
		c.pos++
		if c.pos == len(c.buf) {
			// Refill before yielding so the next min-compare sees a
			// non-empty buffer or a finished cursor.
			if err := c.refill(); err != nil {
				return rep, err
			}
		}
		if !fn(e.k, e.v) {
			return rep, nil
		}
	}
}

// ShardStat is one shard's slice of the index's cache and quarantine
// state, the per-shard breakdown STATS serves at the wire level.
type ShardStat struct {
	Shard       int   `json:"shard"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Quarantined int   `json:"quarantined"`
}

// ShardStats snapshots every shard's buffer-cache counters and
// quarantine registry size.
func (ix *Index) ShardStats() []ShardStat {
	out := make([]ShardStat, len(ix.trees))
	for i, t := range ix.trees {
		h, m := t.Pool().Stats()
		out[i] = ShardStat{
			Shard: i, Hits: h, Misses: m,
			Quarantined: t.Pool().Quarantine().Len(),
		}
	}
	return out
}
