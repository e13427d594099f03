package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/shard"
	"repro/internal/vacuum"
)

// Sharded indexes: one logical index partitioned across N B-link trees
// behind an internal/shard router. Each shard owns its own page file,
// buffer-pool stripe set, sync counter (= sync domain), split lock, and
// quarantine registry, so the singletons that cap a single tree's
// scalability are multiplied away. Point operations route lock-free by
// key hash; range scans merge the per-shard streams in key order; and
// post-crash repair — the paper's repair-on-first-use — runs per-shard
// in parallel, because no shard needs anything from another to heal.

// ErrShardMismatch is returned when opening an existing sharded index
// with a different shard count than it was created with: the key->shard
// hash would route lookups to the wrong trees.
var ErrShardMismatch = errors.New("core: sharded index opened with wrong shard count")

// KVIndex is the index surface the serving layer and tools route through,
// satisfied by both the single-tree *Index and the sharded *ShardedIndex.
type KVIndex interface {
	Name() string
	InsertTID(t *Txn, key []byte, tid heap.TID) error
	InsertTIDBatch(t *Txn, keys [][]byte, tids []heap.TID) error
	LookupTID(key []byte) (heap.TID, error)
	FetchVisible(rel *Relation, key []byte) ([]byte, error)
	Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error
	ScanAhead(rel *Relation, start, end []byte, rows int, fn func(key []byte, tid heap.TID) bool) error
	ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error)
	BulkLoad(keys [][]byte, tids []heap.TID) error
	Rebuild(rel *Relation, keyOf vacuum.KeyOf) (RebuildStats, error)
}

var (
	_ KVIndex = (*Index)(nil)
	_ KVIndex = (*ShardedIndex)(nil)
)

// ShardedIndex is a crash-recoverable index partitioned across N B-link
// trees. It carries the same operation surface as Index; the difference
// is purely structural — N sync domains instead of one, N split locks
// instead of one, N quarantine registries instead of one.
type ShardedIndex struct {
	db    *DB
	name  string
	trees []*btree.Tree
	r     *shard.Router
}

// shardMetaMagic marks page 0 of the shard-count meta file.
const shardMetaMagic = uint32(0x53484152) // "SHAR"

// CreateShardedIndex opens (creating if absent) an index of the given
// variant partitioned across nShards trees. nShards <= 0 falls back to
// Config.Shards (and to 1 if that is unset too). The shard count is
// persisted beside the shard files; reopening with a different count
// fails with ErrShardMismatch rather than silently misrouting keys.
func (db *DB) CreateShardedIndex(name string, v Variant, nShards int) (_ *ShardedIndex, err error) {
	if nShards <= 0 {
		nShards = db.cfg.Shards
	}
	if nShards <= 0 {
		nShards = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if ix, ok := db.sharded[name]; ok {
		if len(ix.trees) != nShards {
			return nil, fmt.Errorf("%w: %q is open with %d shards, requested %d",
				ErrShardMismatch, name, len(ix.trees), nShards)
		}
		return ix, nil
	}
	if err := db.checkShardMeta(name, nShards); err != nil {
		return nil, err
	}
	trees := make([]*btree.Tree, nShards)
	legs := make([]shard.Tree, nShards)
	// Every tree opened so far has a bound walk reading its file; a failed
	// open hands none of them to Close, so it joins them itself.
	defer func() {
		for _, t := range trees {
			if err != nil && t != nil {
				_ = t.AwaitBound() // the open's own error is the one reported
			}
		}
	}()
	for i := range trees {
		d, err := db.store.open(shardFileName(name, i))
		if err != nil {
			return nil, err
		}
		opts := db.cfg.IndexOptions
		if opts.PoolSize == 0 {
			opts.PoolSize = db.cfg.PoolSize
		}
		if opts.Obs == nil {
			opts.Obs = db.cfg.Obs
		}
		t, err := btree.Open(d, v, opts)
		if err != nil {
			return nil, err
		}
		if db.cfg.Retry != (buffer.RetryPolicy{}) {
			t.Pool().SetRetryPolicy(db.cfg.Retry)
		}
		db.attachHealth(t.Pool())
		trees[i] = t
		legs[i] = t
	}
	r, err := shard.New(legs)
	if err != nil {
		return nil, err
	}
	ix := &ShardedIndex{db: db, name: name, trees: trees, r: r}
	db.sharded[name] = ix
	return ix, nil
}

// shardFileName names shard i's page file.
func shardFileName(name string, i int) string {
	return fmt.Sprintf("idx_%s.s%d", name, i)
}

// checkShardMeta persists (first open) or verifies (reopen) the shard
// count in a one-page meta file. The count is what makes the key->shard
// hash stable across restarts; a mismatch is a configuration error, not
// something to paper over. Called with db.mu held.
func (db *DB) checkShardMeta(name string, nShards int) error {
	d, err := db.store.open("idx_" + name + ".shards")
	if err != nil {
		return err
	}
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	if d.NumPages() > 0 {
		if err := d.ReadPage(0, buf); err != nil {
			return err
		}
		if !buf.IsZeroed() {
			base := page.HeaderSize
			if binary.BigEndian.Uint32(buf[base:]) != shardMetaMagic {
				return fmt.Errorf("core: %q shard meta page is not a shard meta page", name)
			}
			stored := int(binary.BigEndian.Uint32(buf[base+4:]))
			if stored != nShards {
				return fmt.Errorf("%w: %q was created with %d shards, requested %d",
					ErrShardMismatch, name, stored, nShards)
			}
			return nil
		}
	}
	buf.Init(page.TypeMeta, 0)
	base := page.HeaderSize
	binary.BigEndian.PutUint32(buf[base:], shardMetaMagic)
	binary.BigEndian.PutUint32(buf[base+4:], uint32(nShards))
	if err := d.WritePage(0, buf); err != nil {
		return err
	}
	return d.Sync()
}

// Name returns the index name.
func (ix *ShardedIndex) Name() string { return ix.name }

// Shards returns the shard count.
func (ix *ShardedIndex) Shards() int { return len(ix.trees) }

// Tree exposes shard i's underlying B-link tree (stats, checks, tools).
func (ix *ShardedIndex) Tree(i int) *btree.Tree { return ix.trees[i] }

// Router exposes the shard router (experiments and tools).
func (ix *ShardedIndex) Router() *shard.Router { return ix.r }

// InsertTID adds key -> tid within the transaction, routing to the key's
// shard. Only that shard's tree joins the transaction's force set: a
// commit whose writes all landed in one shard syncs one domain, and a
// batch spanning shards still ends in ONE status append (internal/txn
// fans the per-domain forces out in parallel).
func (ix *ShardedIndex) InsertTID(t *Txn, key []byte, tid heap.TID) error {
	if err := ix.db.writable(); err != nil {
		return err
	}
	tr := ix.trees[ix.r.Pick(key)]
	t.tx.Touch(tr)
	return tr.Insert(key, tid.Bytes())
}

// InsertTIDBatch adds every key -> tid pair within the transaction. Keys
// are grouped by shard and each shard's sub-batch goes through its tree's
// batched insert path; sub-batches of different shards apply in parallel
// (the shards share nothing, so this is the same freedom Recover exploits).
// Every touched shard joins the transaction's force set before any insert
// runs, keeping the commit protocol identical to a loop over InsertTID.
func (ix *ShardedIndex) InsertTIDBatch(t *Txn, keys [][]byte, tids []heap.TID) error {
	if len(keys) != len(tids) {
		return fmt.Errorf("core: batch of %d keys with %d tids", len(keys), len(tids))
	}
	if err := ix.db.writable(); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	byShard := make(map[int][]int)
	for i, k := range keys {
		s := ix.r.Pick(k)
		byShard[s] = append(byShard[s], i)
	}
	for s := range byShard {
		t.tx.Touch(ix.trees[s])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ix.trees))
	for s, idxs := range byShard {
		sub := make([][]byte, len(idxs))
		vals := make([][]byte, len(idxs))
		for j, i := range idxs {
			sub[j] = keys[i]
			vals[j] = tids[i].Bytes()
		}
		wg.Add(1)
		go func(s int, sub, vals [][]byte) {
			defer wg.Done()
			errs[s] = ix.trees[s].InsertBatch(sub, vals)
		}(s, sub, vals)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LookupTID resolves a key through its shard. Degraded-mode semantics are
// per-shard: a quarantined range in one shard fails typed only for keys
// routed there.
func (ix *ShardedIndex) LookupTID(key []byte) (heap.TID, error) {
	if err := ix.db.readable(); err != nil {
		return heap.TID{}, err
	}
	v, err := ix.r.Lookup(key)
	if err != nil {
		return heap.TID{}, err
	}
	return heap.ParseTID(v)
}

// FetchVisible resolves key through the shard router and the relation,
// applying tuple visibility exactly as Index.FetchVisible does.
func (ix *ShardedIndex) FetchVisible(rel *Relation, key []byte) ([]byte, error) {
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

// Scan visits index entries in [start, end) in global key order: a k-way
// merge over the per-shard trees (keys are disjoint across shards).
func (ix *ShardedIndex) Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error {
	if err := ix.db.readable(); err != nil {
		return err
	}
	ix.db.cfg.Obs.Count(obs.ShardScan)
	return ix.r.Scan(start, end, withTID(fn))
}

// ScanAhead is Scan: the merge draws on every shard's tree in batches of its
// own, so what one leaf holds says little about which heap pages fn meets
// next, and nothing is hinted.
func (ix *ShardedIndex) ScanAhead(_ *Relation, start, end []byte, _ int, fn func(key []byte, tid heap.TID) bool) error {
	return ix.Scan(start, end, fn)
}

// ScanDegraded is Scan with skip-and-report semantics lifted to the
// merged stream: a quarantined subtree in any one shard is skipped and
// reported without suppressing the other shards' keys in its range.
func (ix *ShardedIndex) ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return btree.ScanReport{}, err
	}
	ix.db.cfg.Obs.Count(obs.ShardScan)
	return ix.r.ScanDegraded(start, end, withTID(fn))
}

// Sync forces every shard (parallel fan-out across the sync domains).
func (ix *ShardedIndex) Sync() error { return ix.r.Sync() }

// Recover runs the repair-on-first-use sweep over every shard — in
// parallel goroutines when parallel is set — returning per-shard and
// wall timings plus the merged skip report. This is the post-crash heal:
// after a restart it brings every pending §3.3/§3.4 repair forward
// instead of leaving it to first use, at 1/N of the sequential time.
func (ix *ShardedIndex) Recover(parallel bool) (shard.RecoveryStats, btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return shard.RecoveryStats{}, btree.ScanReport{}, err
	}
	return ix.r.Recover(parallel, ix.db.cfg.Obs)
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
func (ix *ShardedIndex) ShardStats() []ShardStat {
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

// ShardedIndexes lists the open sharded indexes, sorted by name.
func (db *DB) ShardedIndexes() []*ShardedIndex {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*ShardedIndex, 0, len(db.sharded))
	for _, ix := range db.sharded {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
