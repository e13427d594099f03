package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

func shardKey(i int) []byte {
	return []byte(fmt.Sprintf("sk%05d", i))
}

// TestShardedInsertCommitFetch drives the full transactional path through a
// 4-shard index: inserts route by hash, commits force only the touched
// shards, lookups and visible fetches resolve through shardOf, and a
// range scan sees the union keyspace in global key order.
func TestShardedInsertCommitFetch(t *testing.T) {
	const n = 300
	rec := obs.New(64)
	db, err := Open(Memory(), Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndexN("t_pk", Shadow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", ix.Shards())
	}

	for i := 0; i < n; i++ {
		tx := db.Begin()
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Every key resolves to its owning tree.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil {
			t.Fatalf("FetchVisible(%d): %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}

	// The hash actually spread the keys: every shard holds at least one.
	for s := 0; s < ix.Shards(); s++ {
		cnt := 0
		if err := ix.Trees()[s].Scan(nil, nil, func(k, v []byte) bool {
			if got := ix.shardOf(k); got != s {
				t.Fatalf("shard %d holds key %q owned by shard %d", s, k, got)
			}
			cnt++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			t.Fatalf("shard %d is empty — hash did not spread %d keys", s, n)
		}
	}

	// Merged scan: all n keys, in global key order.
	var last []byte
	seen := 0
	err = ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("merged scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("merged scan saw %d keys, want %d", seen, n)
	}
	if rec.Get(obs.ShardScan) == 0 {
		t.Fatal("shard.scan not counted")
	}

	// Stats surfaces: per-shard pools appear in CacheStats and ShardStats.
	cs := db.CacheStats()
	for s := 0; s < 4; s++ {
		name := fmt.Sprintf("idx_t_pk.s%d", s)
		if _, ok := cs.Partitions[name]; !ok {
			t.Fatalf("CacheStats missing %q: %v", name, cs.Partitions)
		}
	}
	if st := ix.ShardStats(); len(st) != 4 {
		t.Fatalf("ShardStats len = %d", len(st))
	}
}

// TestShardedMetaMismatch: the shard count is persisted at create time and
// a reopen with a different count fails typed instead of misrouting keys.
func TestShardedMetaMismatch(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndexN("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	// Same handle, wrong count: refused while open.
	if _, err := db.CreateIndexN("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("open-handle mismatch: %v, want ErrShardMismatch", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with the wrong count: refused from the persisted meta.
	db2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.CreateIndexN("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen mismatch: %v, want ErrShardMismatch", err)
	}
	// The right count still works.
	if _, err := db2.CreateIndexN("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardMismatchOneVersusMany: the two mismatches a count file alone does
// not catch. A one-tree open never reads a count it has no reason to expect,
// and a many-tree open finds no count beside a one-tree index; either way the
// caller would be served a new, empty index over a populated store.
func TestShardMismatchOneVersusMany(t *testing.T) {
	for _, tc := range []struct {
		name              string
		created, reopened int
	}{
		{"one over four", 4, 1},
		{"four over one", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := Memory()
			db, err := Open(store, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := db.CreateIndexN("x", Shadow, tc.created)
			if err != nil {
				t.Fatal(err)
			}
			tx := db.Begin()
			for i := 0; i < 100; i++ {
				if err := ix.InsertTID(tx, shardKey(i), heap.TID{PageNo: 1, Slot: uint16(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(store, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if _, err := db2.CreateIndexN("x", Shadow, tc.reopened); !errors.Is(err, ErrShardMismatch) {
				t.Fatalf("%d shards reopened with %d: %v, want ErrShardMismatch", tc.created, tc.reopened, err)
			}
			ix2, err := db2.CreateIndexN("x", Shadow, tc.created)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix2.LookupTID(shardKey(99)); err != nil {
				t.Fatalf("right count after the refused open: %v", err)
			}
		})
	}
}

// TestShardedCrashRecoveryParallel is the end-to-end fast-recovery story at
// shard scale: a crash leaves dirty state in every shard, restart does no
// log processing, and one parallel Recover sweep heals all shards
// concurrently — attested by the shard.recover counter —
// after which every committed key is visible and every in-flight key is not.
func TestShardedCrashRecoveryParallel(t *testing.T) {
	const nShards = 4
	const committed = 400
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("t")
	ix, err := db.CreateIndexN("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	for i := 0; i < committed; i++ {
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second transaction in flight when the machine dies: its inserts
	// have dirtied pages in every shard.
	tx2 := db.Begin()
	for i := committed; i < committed+200; i++ {
		tid, err := rel.Insert(tx2, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx2, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-sync: flush to the OS cache, keep every other pending page.
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var out []storage.PageNo
			for i, no := range pending {
				if i%2 == 0 {
					out = append(out, no)
				}
			}
			return out
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: reopen and run ONE parallel recovery sweep over all shards.
	rec := obs.New(obs.DefaultRingCap)
	db2, err := Open(store, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, _ := db2.CreateRelation("t")
	ix2, err := db2.CreateIndexN("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ix2.Recover()
	if err != nil {
		t.Fatalf("parallel recover: %v", err)
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("recovery quarantined %d ranges on clean repairs: %+v", len(rep.Skipped), rep)
	}
	if got := rec.Get(obs.ShardRecover); got != nShards {
		t.Fatalf("shard.recover = %d, want %d (one per shard)", got, nShards)
	}

	for i := 0; i < committed; i++ {
		data, err := ix2.FetchVisible(rel2, shardKey(i))
		if err != nil {
			t.Fatalf("committed key %d lost: %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}
	for i := committed; i < committed+200; i++ {
		_, err := ix2.FetchVisible(rel2, shardKey(i))
		if err == nil {
			t.Fatalf("uncommitted key %d visible after crash", i)
		}
		if !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("uncommitted key %d: unexpected error %v", i, err)
		}
	}
	if got := db2.Health(); got != Healthy {
		t.Fatalf("health after recovery = %v, want Healthy", got)
	}
}

// TestShardedRebuildFromHeapRespectsRouting: when one shard's leaf is
// stably corrupted beyond repair, the supervisor abandons it and re-seeds
// from the heap — inserting ONLY keys shardOf hashes to that shard, so
// the rebuild never plants a key where lookups would miss it.
func TestShardedRebuildFromHeapRespectsRouting(t *testing.T) {
	const n = 4000
	const nShards = 4
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix, _ := buildFaultyDB(t, rec, n, nShards)
	defer db.Close()
	db.cfg.Supervisor.RebuildAfter = 1
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	const victim = 1
	fd := FaultDisks(st)[fmt.Sprintf("idx_acct_pk.s%d", victim)]
	if fd == nil {
		t.Fatal("no fault disk for the victim shard")
	}
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.Trees()[victim].Pool().InvalidateAll()

	// First touch quarantines the subtree.
	rep, err := ix.ScanDegraded(nil, nil, func([]byte, heap.TID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("stable corruption did not quarantine anything — scenario is vacuous")
	}

	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if rec.Get(obs.RepairRebuild) == 0 {
		t.Fatal("repair.rebuild not counted")
	}

	// Every key is back, and the rebuilt shard holds only its own keys.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, healthKey(i))
		if err != nil || !bytes.Equal(data, healthKey(i)) {
			t.Fatalf("key %d after rebuild: %q, %v", i, data, err)
		}
	}
	if err := ix.Trees()[victim].Scan(nil, nil, func(k, v []byte) bool {
		if got := ix.shardOf(k); got != victim {
			t.Fatalf("rebuild planted key %q (shard %d) into shard %d", k, got, victim)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// mergeKey is key i as 8 big-endian bytes, so key order is numeric order.
func mergeKey(i int) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(i))
}

// openMergeIndex opens an index of n trees of variant v over fresh memory.
func openMergeIndex(t *testing.T, n int, v Variant) (Storage, *Index) {
	t.Helper()
	store := Memory()
	db, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ix, err := db.CreateIndexN("m", v, n)
	if err != nil {
		t.Fatal(err)
	}
	return store, ix
}

// insertOwned puts key -> tid straight into the tree shardOf routes key to.
func insertOwned(t *testing.T, ix *Index, key []byte, tid heap.TID) {
	t.Helper()
	if err := ix.Trees()[ix.shardOf(key)].Insert(key, tid.Bytes()); err != nil {
		t.Fatalf("insert %q: %v", key, err)
	}
}

// TestMergeScanOrdering inserts interleaved keys by shardOf and asserts the
// merged scan yields the exact global key order — the keys land on
// different shards in hash order, so adjacent output keys almost always
// cross a shard boundary. Index.Scan goes straight to the tree when there is
// one, so the one-tree case calls the merge directly: one leg must merge too.
func TestMergeScanOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		_, ix := openMergeIndex(t, n, Shadow)
		const total = 1000 // >> scanChunk, forcing multiple refills per cursor
		perShard := make(map[int]int)
		for i := 0; i < total; i++ {
			insertOwned(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
			perShard[ix.shardOf(mergeKey(i))]++
		}
		if n > 1 {
			// The hash must actually spread the keys: every shard owns some.
			for s := 0; s < n; s++ {
				if perShard[s] == 0 {
					t.Fatalf("n=%d: shard %d owns no keys; hash not spreading", n, s)
				}
			}
		}
		var got []int
		visit := func(k []byte, tid heap.TID) bool {
			i := int(binary.BigEndian.Uint64(k))
			if tid.PageNo != uint32(i) {
				t.Fatalf("value mismatch for key %x", k)
			}
			got = append(got, i)
			return true
		}
		var err error
		if n == 1 {
			_, err = ix.merge(nil, nil, false, withTID(visit))
		} else {
			err = ix.Scan(nil, nil, visit)
		}
		if err != nil {
			t.Fatalf("n=%d scan: %v", n, err)
		}
		if len(got) != total {
			t.Fatalf("n=%d: scan yielded %d keys, want %d", n, len(got), total)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("n=%d: merged scan out of order", n)
		}
	}
}

// TestMergeScanBounds checks half-open [start, end) ranges and the early
// stop (fn returning false) across shard boundaries.
func TestMergeScanBounds(t *testing.T) {
	_, ix := openMergeIndex(t, 4, Reorg)
	const total = 500
	for i := 0; i < total; i++ {
		insertOwned(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	var got []int
	if err := ix.Scan(mergeKey(100), mergeKey(300), func(k []byte, _ heap.TID) bool {
		got = append(got, int(binary.BigEndian.Uint64(k)))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 || got[0] != 100 || got[199] != 299 {
		t.Fatalf("range scan got %d keys [%d..%d], want 200 [100..299]",
			len(got), got[0], got[len(got)-1])
	}
	// Early stop after 10 entries.
	count := 0
	if err := ix.Scan(nil, nil, func([]byte, heap.TID) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("early stop visited %d entries, want 10", count)
	}
}

// TestMergeScanPrefixSpansShards uses string keys sharing prefixes: every
// extension of a prefix hashes to an arbitrary shard, so a prefix scan is
// the worst case for merge ordering.
func TestMergeScanPrefixSpansShards(t *testing.T) {
	_, ix := openMergeIndex(t, 4, Shadow)
	var want []string
	for _, p := range []string{"app", "apple", "applied", "apply", "apt", "base", "basil"} {
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("%s/%04d", p, i)
			insertOwned(t, ix, []byte(k), heap.TID{PageNo: 1})
			if len(k) >= 3 && k[:3] == "app" {
				want = append(want, k)
			}
		}
	}
	sort.Strings(want)
	var got []string
	if err := ix.Scan([]byte("app"), []byte("app\xff"), func(k []byte, _ heap.TID) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("prefix scan yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan position %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// stubShard serves a fixed sorted key list, with an optional quarantined
// range it skips and reports — a deterministic degraded shard.
type stubShard struct {
	keys   []string // sorted
	qLo    string   // quarantined [qLo, qHi); empty = healthy
	qHi    string
	qPage  uint32
	visits int // ScanDegraded calls, to verify chunked resume
}

func (s *stubShard) Scan(start, end []byte, fn func(k, v []byte) bool) error {
	for _, k := range s.keys {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			return nil
		}
		if !fn([]byte(k), []byte("v")) {
			return nil
		}
	}
	return nil
}

func (s *stubShard) ScanDegraded(start, end []byte, fn func(k, v []byte) bool) (btree.ScanReport, error) {
	s.visits++
	var rep btree.ScanReport
	reported := false
	for _, k := range s.keys {
		if start != nil && k < string(start) {
			continue
		}
		if end != nil && k >= string(end) {
			return rep, nil
		}
		if s.qLo != "" && k >= s.qLo && k < s.qHi {
			if !reported {
				reported = true
				rep.Skipped = append(rep.Skipped, btree.SkippedRange{
					PageNo: s.qPage, Lo: []byte(s.qLo), Hi: []byte(s.qHi),
				})
			}
			continue
		}
		if !fn([]byte(k), []byte("v")) {
			return rep, nil
		}
	}
	return rep, nil
}

// TestDegradedShardDoesNotPoisonMerge puts a quarantined range in one
// shard: the merged degraded stream must stay ordered and complete for
// every other key, and the merged report must carry the skipped range
// exactly once even though the cursor refills cross it repeatedly.
func TestDegradedShardDoesNotPoisonMerge(t *testing.T) {
	mk := func(lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, fmt.Sprintf("k%06d", i))
		}
		return out
	}
	healthy1 := &stubShard{keys: mk(0, 300)}
	// The degraded shard owns 300..600 and has quarantined 350..500 —
	// wider than a scan chunk, so several refills re-encounter it.
	degraded := &stubShard{keys: mk(300, 600), qLo: "k000350", qHi: "k000500", qPage: 42}
	healthy2 := &stubShard{keys: mk(600, 900)}

	var got []string
	rep, err := mergeScan([]scanLeg{healthy1, degraded, healthy2}, nil, nil, true, func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 900 - (500 - 350)
	if len(got) != want {
		t.Fatalf("degraded merge yielded %d keys, want %d", len(got), want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("degraded merge out of order")
	}
	for _, k := range got {
		if k >= "k000350" && k < "k000500" {
			t.Fatalf("degraded merge emitted quarantined key %q", k)
		}
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("merged report has %d skipped ranges, want 1 (deduplicated): %+v",
			len(rep.Skipped), rep.Skipped)
	}
	s := rep.Skipped[0]
	if s.PageNo != 42 || string(s.Lo) != "k000350" || string(s.Hi) != "k000500" {
		t.Fatalf("merged report carries wrong range: %+v", s)
	}
	if degraded.visits < 2 {
		t.Fatalf("degraded shard refilled %d times; chunked resume not exercised", degraded.visits)
	}
}

// TestRouterRecoverParallel asserts the per-shard recovery fan-out over a
// real 4-shard index whose shard 1 has one stably corrupted leaf: every
// shard's sweep runs, the merged report carries exactly that leaf on each
// sweep, and the recorder counts one shard.recover per shard and sweep.
func TestRouterRecoverParallel(t *testing.T) {
	const nShards, victim = 4, 1
	rec := obs.New(obs.DefaultRingCap)
	db, st, _, ix, _ := buildFaultyDB(t, rec, 4000, nShards)
	defer db.Close()
	fd := FaultDisks(st)[fmt.Sprintf("idx_acct_pk.s%d", victim)]
	if fd == nil {
		t.Fatal("no fault disk for the victim shard")
	}
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.Trees()[victim].Pool().InvalidateAll()
	for sweep := 0; sweep < 2; sweep++ {
		rep, err := ix.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Skipped) != 1 || rep.Skipped[0].PageNo != uint32(leaves[0]) {
			t.Fatalf("sweep %d: merged recovery report %+v, want page %d alone", sweep, rep, leaves[0])
		}
	}
	if got := rec.Get(obs.ShardRecover); got != 2*nShards {
		t.Fatalf("shard.recover = %d, want %d", got, 2*nShards)
	}
}

// TestRealTreeRecoverThroughRouter runs the parallel sweep over real trees
// that crashed with pending writes in every shard.
func TestRealTreeRecoverThroughRouter(t *testing.T) {
	const n = 4
	store, ix := openMergeIndex(t, n, Shadow)
	const committed = 400
	for i := 0; i < committed; i++ {
		insertOwned(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	for _, tr := range ix.Trees() {
		if err := tr.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := committed; i < committed+200; i++ {
		insertOwned(t, ix, mergeKey(i), heap.TID{PageNo: uint32(i)})
	}
	// Crash every shard: dirty pages reach the OS but only half survive.
	for _, tr := range ix.Trees() {
		if err := tr.Pool().FlushDirty(); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			return pending[:len(pending)/2]
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen each shard over its crashed disk and heal them in parallel.
	db2, err := Open(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ix2, err := db2.CreateIndexN("m", Shadow, n)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := ix2.Recover(); err != nil {
		t.Fatal(err)
	} else if len(rep.Skipped) != 0 {
		t.Fatalf("recovery skipped ranges on a MemDisk crash: %+v", rep.Skipped)
	}
	// Every committed key survives and the merged order holds.
	prev := -1
	count := 0
	if err := ix2.Scan(nil, mergeKey(committed), func(k []byte, _ heap.TID) bool {
		i := int(binary.BigEndian.Uint64(k))
		if i <= prev {
			t.Fatalf("post-recovery scan out of order at %d", i)
		}
		prev = i
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != committed {
		t.Fatalf("post-recovery scan found %d committed keys, want %d", count, committed)
	}
}
